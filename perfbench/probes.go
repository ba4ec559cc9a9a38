package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// wireCounters are one daemon's transport counters as /metrics exposes
// them.
type wireCounters struct {
	round, msgs, bytes, flushes float64
}

// parseMetrics reads the named families' unlabelled samples from a
// Prometheus text exposition.
func parseMetrics(body []byte, names ...string) (map[string]float64, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", name, err)
		}
		out[name] = v
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("metric %s missing", n)
		}
	}
	return out, sc.Err()
}

// scrapeWire reads every daemon's wire counters from /metrics.
func scrapeWire(c *ctl, r *ring) ([]wireCounters, error) {
	out := make([]wireCounters, len(r.api))
	for i, base := range r.api {
		body, err := c.get(base + "/metrics")
		if err != nil {
			return nil, err
		}
		m, err := parseMetrics(body, "powercap_round", "powercap_wire_msgs_sent_total",
			"powercap_wire_bytes_sent_total", "powercap_wire_flushes_total")
		if err != nil {
			return nil, fmt.Errorf("node %d /metrics: %w", i, err)
		}
		out[i] = wireCounters{
			round:   m["powercap_round"],
			msgs:    m["powercap_wire_msgs_sent_total"],
			bytes:   m["powercap_wire_bytes_sent_total"],
			flushes: m["powercap_wire_flushes_total"],
		}
	}
	return out, nil
}

// add accumulates the counters' growth from before to after.
func (w *wireCounters) add(after, before wireCounters) {
	w.round += after.round - before.round
	w.msgs += after.msgs - before.msgs
	w.bytes += after.bytes - before.bytes
	w.flushes += after.flushes - before.flushes
}

// reportWire reports the transport's per-round traffic from per-daemon
// counter growth, summed over the daemons.
func reportWire(l *ledger, growth []wireCounters) {
	var d wireCounters
	for _, g := range growth {
		d.add(g, wireCounters{})
	}
	l.figure("tcp.msgs_per_round", d.msgs/d.round, "msgs/round")
	l.figure("tcp.bytes_per_msg", d.bytes/d.msgs, "B/msg")
	l.figure("tcp.msgs_per_flush", d.msgs/d.flushes, "msgs/flush")
}

// peerSRTT returns the median smoothed round-trip time, in microseconds,
// over every daemon's view of every peer in /v1/health.
func peerSRTT(c *ctl, r *ring) (float64, error) {
	var rtts []float64
	for i, base := range r.api {
		body, err := c.get(base + "/v1/health")
		if err != nil {
			return 0, err
		}
		var h struct {
			Peers []struct {
				RTTMeanUs float64 `json:"rtt_mean_us"`
				Samples   int     `json:"samples"`
			} `json:"peers"`
		}
		if err := json.Unmarshal(body, &h); err != nil {
			return 0, fmt.Errorf("node %d /v1/health: %w", i, err)
		}
		for _, p := range h.Peers {
			if p.Samples > 0 {
				rtts = append(rtts, p.RTTMeanUs)
			}
		}
	}
	if len(rtts) == 0 {
		return 0, fmt.Errorf("no peer round-trip samples in /v1/health")
	}
	return median(rtts), nil
}
