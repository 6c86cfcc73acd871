package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// answer is what the harness reads from a /v1/query, /v1/approx or
// /v1/contract response body.
type answer struct {
	Value      float64  `json:"value"`
	HalfWidth  *float64 `json:"half_width"`
	Confidence *float64 `json:"confidence"`
	Groups     []struct {
		Key       string   `json:"key"`
		Value     float64  `json:"value"`
		HalfWidth *float64 `json:"half_width"`
	} `json:"groups"`
	Escalated bool `json:"escalated"`
}

// result is one completed request as the client saw it.
type result struct {
	Req   request
	Start time.Time
	End   time.Time
	// First is when the first SSE round event was parsed (progressive
	// only).
	First  time.Time
	Status int
	Cached bool
	Answer answer
	// Err describes a transport failure, a non-2xx status or a
	// malformed body; empty when the response was well formed.
	Err string
}

func (r *result) latencyMS() float64 {
	return float64(r.End.Sub(r.Start)) / float64(time.Millisecond)
}

// client sends generated requests to one base URL over one keep-alive
// connection.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and waits for its whole response.
func (c *client) do(req request) result {
	res := result{Req: req, Start: time.Now()}
	resp, err := c.http.Post(c.base+req.Path, "application/json", bytes.NewReader(req.Body))
	if err != nil {
		res.End = time.Now()
		res.Err = "transport: " + err.Error()
		return res
	}
	defer resp.Body.Close()
	res.Status = resp.StatusCode
	res.Cached = resp.Header.Get("X-Cache") == "hit"
	if req.Class == classProgressive && resp.StatusCode == http.StatusOK {
		res.Err = readStream(resp.Body, &res)
		res.End = time.Now()
		return res
	}
	body, err := io.ReadAll(resp.Body)
	res.End = time.Now()
	switch {
	case err != nil:
		res.Err = "read body: " + err.Error()
	case resp.StatusCode/100 != 2:
		res.Err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	default:
		if err := json.Unmarshal(body, &res.Answer); err != nil {
			res.Err = "decode body: " + err.Error()
		}
	}
	return res
}

// readStream consumes a /v1/progressive SSE stream, checking its shape:
// at least one round, intervals that never widen, and a terminal done
// event. The final round's interval becomes the result's answer.
func readStream(body io.Reader, res *result) string {
	sc := bufio.NewScanner(body)
	event := ""
	rounds, done := 0, false
	lastHW := 0.0
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			event = ev
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "round":
			var r struct {
				Value      float64 `json:"value"`
				HalfWidth  float64 `json:"half_width"`
				Confidence float64 `json:"confidence"`
			}
			if err := json.Unmarshal([]byte(data), &r); err != nil {
				return "decode round: " + err.Error()
			}
			if rounds == 0 {
				res.First = time.Now()
			} else if r.HalfWidth > lastHW {
				return fmt.Sprintf("round %d widened the interval: %g > %g", rounds+1, r.HalfWidth, lastHW)
			}
			rounds++
			lastHW = r.HalfWidth
			hw, conf := r.HalfWidth, r.Confidence
			res.Answer.Value, res.Answer.HalfWidth, res.Answer.Confidence = r.Value, &hw, &conf
		case "done":
			done = true
		case "error":
			return "stream error event: " + data
		}
	}
	if err := sc.Err(); err != nil {
		return "read stream: " + err.Error()
	}
	if rounds == 0 {
		return "stream carried no round event"
	}
	if !done {
		return "stream ended without a done event"
	}
	return ""
}

// getJSON fetches a GET endpoint into v.
func (c *client) getJSON(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// drive runs a closed loop of one client: the next request is sent
// only after the previous one's response is complete (the caller is an
// analyst or a dashboard that waits for a reply, and with the servers
// on one CPU a second client would only measure how the two queue for
// it). Requests come from next in index order; the loop ends when next
// reports no more or stop closes. Results are in completion order.
func (c *client) drive(next func() (request, bool, error), stop <-chan struct{}) ([]result, error) {
	var all []result
	for {
		select {
		case <-stop:
			return all, nil
		default:
		}
		req, ok, err := next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return all, nil
		}
		all = append(all, c.do(req))
	}
}

// sequence hands out a generator's requests in index order, from index
// from up to (not including) limit; limit < 0 means no limit.
func sequence(g *generator, from, limit int) func() (request, bool, error) {
	i := from
	return func() (request, bool, error) {
		if limit >= 0 && i >= limit {
			return request{}, false, nil
		}
		req, err := g.request(i)
		i++
		return req, err == nil, err
	}
}

// fixed hands out a prepared list of requests in order.
func fixed(reqs []request) func() (request, bool, error) {
	i := 0
	return func() (request, bool, error) {
		if i >= len(reqs) {
			return request{}, false, nil
		}
		i++
		return reqs[i-1], true, nil
	}
}
