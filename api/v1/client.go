package apiv1

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// Client talks to a macroflowd server. The zero value is not usable;
// construct with NewClient. It is safe for concurrent use.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080" (the
	// /v1 prefix is appended per call).
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

// NewClient returns a client for the server at base (scheme + host,
// no version prefix).
func NewClient(base string) *Client {
	return &Client{BaseURL: base}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues one request and decodes the response into out (leniently —
// unknown response fields are ignored so old clients keep working
// against newer v1 servers). Non-2xx responses decode the typed error
// envelope and return its *Error: a job the server has let go, for
// instance, is an *Error with code ErrGone on every per-job call.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+PathPrefix+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var env ErrorEnvelope
	if err := json.Unmarshal(data, &env); err == nil && env.Error != nil {
		return env.Error
	}
	return &Error{Code: ErrInternal,
		Message: fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))}
}

// Submit enqueues a compile job and returns its queued status.
func (c *Client) Submit(ctx context.Context, req *CompileRequest) (*JobStatus, error) {
	var job JobStatus
	if err := c.do(ctx, http.MethodPost, "/jobs", req, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Job fetches one job's current status.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var job JobStatus
	if err := c.do(ctx, http.MethodGet, "/jobs/"+url.PathEscape(id), nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Result fetches a finished job's compile result. Jobs that are not
// done yet return an *Error with code ErrNotFinished.
func (c *Client) Result(ctx context.Context, id string) (*CompileResult, error) {
	var res CompileResult
	if err := c.do(ctx, http.MethodGet, "/jobs/"+url.PathEscape(id)+"/result", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// RawResult fetches a finished job's compile result as the server
// encoded it — the exact response bytes, for byte-level comparison
// against a locally computed result.
func (c *Client) RawResult(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+PathPrefix+"/jobs/"+url.PathEscape(id)+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, decodeError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Cancel cancels a queued job (running and finished jobs return an
// *Error with code ErrNotCancelable).
func (c *Client) Cancel(ctx context.Context, id string) (*JobStatus, error) {
	var job JobStatus
	if err := c.do(ctx, http.MethodPost, "/jobs/"+url.PathEscape(id)+"/cancel", nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Wait polls the job until it reaches a terminal state (done, failed
// or canceled) or the context expires.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		job, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		switch job.State {
		case JobDone, JobFailed, JobCanceled:
			return job, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
}

// Events streams the job's JSONL progress feed from seq `from`,
// invoking fn for every event until the job reaches a terminal state,
// fn returns an error, or the context expires.
func (c *Client) Events(ctx context.Context, id string, from int, fn func(Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+PathPrefix+"/jobs/"+url.PathEscape(id)+"/events?from="+strconv.Itoa(from), nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("apiv1: bad event line: %w", err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	return sc.Err()
}

// Stats fetches the server-wide counters.
func (c *Client) Stats(ctx context.Context) (*ServerStats, error) {
	var st ServerStats
	if err := c.do(ctx, http.MethodGet, "/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Health fetches the liveness/drain state.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}
