package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// ShardError is the typed failure of one shard interaction: which node,
// which stage of the shard's lifecycle (submit, poll, job, output,
// table), and the underlying cause. A killed or unreachable shard
// surfaces as a ShardError, never as a hang — every request runs under
// the caller's context.
type ShardError struct {
	Node  string
	Stage string
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("cluster: shard %s: %s: %v", e.Node, e.Stage, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// JobParams are the sort parameters a shard job is submitted with,
// mirroring the /v1/sort/stream octet-stream query form: each field
// travels under its JSON request name, Params as one params.<name>
// parameter per backend parameter.
type JobParams struct {
	Algorithm     string
	Bits          int
	Mode          string
	Backend       string
	Params        map[string]float64
	T             float64
	Seed          uint64
	RunSize       int
	FanIn         int
	Formation     string
	RefineAtMerge bool
}

func (p JobParams) query() url.Values {
	q := url.Values{}
	set := func(k, v string) {
		if v != "" {
			q.Set(k, v)
		}
	}
	set("algorithm", p.Algorithm)
	set("mode", p.Mode)
	set("backend", p.Backend)
	set("formation", p.Formation)
	if p.Bits != 0 {
		q.Set("bits", strconv.Itoa(p.Bits))
	}
	for name, v := range p.Params {
		q.Set("params."+name, strconv.FormatFloat(v, 'g', -1, 64))
	}
	if p.T != 0 {
		q.Set("t", strconv.FormatFloat(p.T, 'g', -1, 64))
	}
	q.Set("seed", strconv.FormatUint(p.Seed, 10))
	if p.RunSize != 0 {
		q.Set("run_size", strconv.Itoa(p.RunSize))
	}
	if p.FanIn != 0 {
		q.Set("fan_in", strconv.Itoa(p.FanIn))
	}
	if p.RefineAtMerge {
		q.Set("refine_at_merge", "true")
	}
	return q
}

// jobView mirrors the slice of the sortd job snapshot the coordinator
// consumes. Unknown fields are ignored by design: the coordinator must
// tolerate shards a minor version ahead.
type jobView struct {
	ID          string `json:"id"`
	Status      string `json:"status"`
	Error       string `json:"error"`
	OutputBytes int64  `json:"output_bytes"`
	Result      *struct {
		Verified   bool    `json:"verified"`
		Sorted     bool    `json:"sorted"`
		WriteNanos float64 `json:"write_nanos"`
		Extsort    *struct {
			Records     int64 `json:"records"`
			Runs        int   `json:"runs"`
			MergePasses int   `json:"merge_passes"`
		} `json:"extsort"`
	} `json:"result"`
}

// Client drives one sortd node's HTTP API on behalf of the coordinator.
type Client struct {
	// Node is the shard's base URL, e.g. "http://127.0.0.1:8081".
	Node string
	// HTTP is the transport (http.DefaultClient when nil).
	HTTP *http.Client
	// PollInterval is the job-status poll cadence (default 50ms).
	PollInterval time.Duration
	// SubmitRetries bounds retries after 429 queue-full responses
	// (default 20, honoring Retry-After between attempts).
	SubmitRetries int
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) fail(stage string, err error) *ShardError {
	return &ShardError{Node: c.Node, Stage: stage, Err: err}
}

// decodeError extracts a sortd {"error": ...} body, falling back to the
// HTTP status.
func decodeError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return errors.New(resp.Status)
}

// Submit streams body (little-endian uint32 keys) to the shard as an
// octet-stream /v1/sort/stream job and returns the job ID. A 429
// queue-full response backs off per Retry-After and retries; bodyFn
// re-opens the upload for each attempt.
func (c *Client) Submit(ctx context.Context, p JobParams, bodyFn func() (io.ReadCloser, error)) (string, error) {
	u := c.Node + "/v1/sort/stream?" + p.query().Encode()
	retries := c.SubmitRetries
	if retries <= 0 {
		retries = 20
	}
	for attempt := 0; ; attempt++ {
		body, err := bodyFn()
		if err != nil {
			return "", c.fail("submit", err)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, body)
		if err != nil {
			body.Close()
			return "", c.fail("submit", err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := c.http().Do(req)
		if err != nil {
			return "", c.fail("submit", err)
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < retries {
			wait := time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
					wait = time.Duration(secs) * time.Second
				}
			}
			resp.Body.Close()
			select {
			case <-time.After(wait):
				continue
			case <-ctx.Done():
				return "", c.fail("submit", ctx.Err())
			}
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			return "", c.fail("submit", decodeError(resp))
		}
		var jv jobView
		if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
			return "", c.fail("submit", err)
		}
		if jv.ID == "" {
			return "", c.fail("submit", errors.New("shard returned no job id"))
		}
		return jv.ID, nil
	}
}

// Wait polls the job until it reaches a terminal state and returns the
// final snapshot. A failed job is a ShardError at stage "job" carrying
// the shard's own error text.
func (c *Client) Wait(ctx context.Context, jobID string) (jobView, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	for {
		jv, err := c.job(ctx, jobID)
		if err != nil {
			return jobView{}, err
		}
		switch jv.Status {
		case "done":
			return jv, nil
		case "failed":
			return jobView{}, c.fail("job", fmt.Errorf("job %s failed: %s", jobID, jv.Error))
		}
		select {
		case <-time.After(interval):
		case <-ctx.Done():
			return jobView{}, c.fail("poll", ctx.Err())
		}
	}
}

func (c *Client) job(ctx context.Context, jobID string) (jobView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Node+"/v1/jobs/"+jobID, nil)
	if err != nil {
		return jobView{}, c.fail("poll", err)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return jobView{}, c.fail("poll", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobView{}, c.fail("poll", decodeError(resp))
	}
	var jv jobView
	if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
		return jobView{}, c.fail("poll", err)
	}
	return jv, nil
}

// Output opens the finished job's sorted stream. The caller must close
// the returned reader.
func (c *Client) Output(ctx context.Context, jobID string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Node+"/v1/jobs/"+jobID+"/output", nil)
	if err != nil {
		return nil, c.fail("output", err)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, c.fail("output", err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, c.fail("output", decodeError(resp))
	}
	return resp.Body, nil
}

// FetchTable downloads the shard's calibrated MLC table artifact for
// half-width t as raw JSON (the coordinator relays it opaquely — it
// never needs the mlc package itself).
func (c *Client) FetchTable(ctx context.Context, t float64) ([]byte, error) {
	u := c.Node + "/v1/tables?t=" + url.QueryEscape(strconv.FormatFloat(t, 'g', -1, 64))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, c.fail("table", err)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, c.fail("table", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, c.fail("table", decodeError(resp))
	}
	return io.ReadAll(resp.Body)
}

// InstallTable uploads a table artifact previously fetched from a warm
// shard.
func (c *Client) InstallTable(ctx context.Context, artifact []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Node+"/v1/tables",
		bytes.NewReader(artifact))
	if err != nil {
		return c.fail("table", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return c.fail("table", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return c.fail("table", decodeError(resp))
	}
	return nil
}
