package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ctl is an HTTP client of the daemons' control plane. Each ctl keeps its
// own keep-alive connection per daemon.
type ctl struct {
	client *http.Client
}

func newCtl() *ctl {
	return &ctl{client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   10 * time.Second,
	}}
}

// close drops the idle connections.
func (c *ctl) close() { c.client.CloseIdleConnections() }

// get fetches url and returns its body; any status but 200 is an error.
func (c *ctl) get(url string) ([]byte, error) {
	resp, err := c.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// caps fetches and parses one daemon's /v1/caps.
func (c *ctl) caps(base string) (capsView, error) {
	var v capsView
	body, err := c.get(base + "/v1/caps")
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return v, fmt.Errorf("GET %s/v1/caps: %w", base, err)
	}
	return v, nil
}

// postBudget posts a cluster budget to one daemon; any status but 2xx is
// an error.
func (c *ctl) postBudget(base string, budgetW float64) error {
	body := `{"budget_w":` + strconv.FormatFloat(budgetW, 'g', -1, 64) + `}`
	resp, err := c.client.Post(base+"/v1/budget", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("POST %s/v1/budget: %w", base, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s/v1/budget: %s", base, resp.Status)
	}
	return nil
}

// postAll lands one budget on every daemon, in node order.
func (c *ctl) postAll(r *ring, budgetW float64, tr *tracer, parent int, op int64) error {
	sp := tr.begin("ctlplane.post_all", parent, op)
	defer tr.end(sp)
	for _, base := range r.api {
		p := tr.begin("ctlplane.post", sp, op)
		err := c.postBudget(base, budgetW)
		tr.end(p)
		if err != nil {
			return err
		}
	}
	return nil
}

// poll fetches daemon i's /v1/caps and checks that it answers as node i
// with nobody declared dead.
func (c *ctl) poll(r *ring, i int) (capsView, error) {
	v, err := c.caps(r.api[i])
	if err != nil {
		return v, err
	}
	if v.Node != i {
		return v, fmt.Errorf("%s answered as node %d, want %d", r.api[i], v.Node, i)
	}
	if len(v.Dead) > 0 {
		return v, fmt.Errorf("node %d declared %v dead", i, v.Dead)
	}
	return v, nil
}

// sweep polls every daemon's /v1/caps in node order and stamps the sweep
// with its end time relative to t0.
func (c *ctl) sweep(r *ring, t0 time.Time, tr *tracer, parent int, op int64) (sweep, error) {
	sp := tr.begin("ctlplane.poll_sweep", parent, op)
	defer tr.end(sp)
	s := sweep{Views: make([]capsView, len(r.api))}
	for i := range r.api {
		p := tr.begin("ctlplane.poll", sp, op)
		v, err := c.poll(r, i)
		tr.end(p)
		if err != nil {
			return s, err
		}
		s.Views[i] = v
	}
	s.At = time.Since(t0)
	return s, nil
}

// waitSettled polls the daemons round-robin, starting from the views of
// base, and after every poll shows d the latest view of each daemon, until
// d reports the cluster settled or limit passes. One poll, not one sweep
// of all daemons, is the resolution. A view from before the step can
// neither settle it (its budget is the old one) nor make a drop look safe
// (its cap is the old, higher one).
func (c *ctl) waitSettled(r *ring, d *detector, base sweep, t0 time.Time, limit time.Duration, tr *tracer, parent int, op int64) error {
	views := append([]capsView(nil), base.Views...)
	for i := 0; ; i = (i + 1) % len(views) {
		sp := tr.begin("ctlplane.poll", parent, op)
		v, err := c.poll(r, i)
		tr.end(sp)
		if err != nil {
			return err
		}
		views[i] = v
		at := time.Since(t0)
		if d.observe(sweep{At: at, Views: views}) {
			return nil
		}
		if at > limit {
			return fmt.Errorf("budget %.0f W not settled after %v", d.budgetW, at.Round(time.Millisecond))
		}
	}
}

// waitReady polls until every daemon serves a published snapshot.
func (c *ctl) waitReady(r *ring, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for i, base := range r.api {
		for {
			_, err := c.caps(base)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("dibad %d not ready after %v: %v\n%s", i, limit, err, r.logTail(i))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}
