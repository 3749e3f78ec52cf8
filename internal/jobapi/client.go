package jobapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"memorex"
	"memorex/internal/obs"
)

// Client is a minimal HTTP client for the memorexd job API, used by
// cmd/memorexctl and the daemon's tests.
type Client struct {
	// Base is the daemon base URL, e.g. "http://localhost:8344".
	Base string
	// Tenant, when non-empty, is sent as the TenantHeader of every
	// request.
	Tenant string
	// HTTPClient overrides http.DefaultClient when non-nil.
	HTTPClient *http.Client
}

// RetryError is the typed 429 admission failure: the queue or the
// tenant quota is full, retry after the advised delay.
type RetryError struct {
	Msg        string
	RetryAfter time.Duration
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("%s (retry after %s)", e.Msg, e.RetryAfter)
}

// StatusError is any other non-2xx response.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%s (HTTP %d)", e.Msg, e.Code)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues one request and decodes the JSON response into out (unless
// out is nil). Non-2xx responses become RetryError/StatusError.
func (c *Client) do(ctx context.Context, method, path string, body io.Reader, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(c.Base, "/")+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Tenant != "" {
		req.Header.Set(TenantHeader, c.Tenant)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return responseError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// responseError turns a non-2xx response into a typed error.
func responseError(resp *http.Response) error {
	msg := resp.Status
	var e Error
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e); err == nil && e.Error != "" {
		msg = e.Error
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		retry := time.Second
		if s := resp.Header.Get("Retry-After"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n >= 0 {
				retry = time.Duration(n) * time.Second
			}
		}
		return &RetryError{Msg: msg, RetryAfter: retry}
	}
	return &StatusError{Code: resp.StatusCode, Msg: msg}
}

// Submit posts an exploration request and returns the admitted job.
func (c *Client) Submit(ctx context.Context, req memorex.ExploreRequest) (Job, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		return Job{}, err
	}
	return c.SubmitRaw(ctx, buf.Bytes())
}

// SubmitRaw posts a pre-encoded ExploreRequest JSON body.
func (c *Client) SubmitRaw(ctx context.Context, body []byte) (Job, error) {
	var jb Job
	err := c.do(ctx, http.MethodPost, PathJobs, bytes.NewReader(body), &jb)
	return jb, err
}

// Job fetches one job's status (including the report once done).
func (c *Client) Job(ctx context.Context, id string) (Job, error) {
	var jb Job
	err := c.do(ctx, http.MethodGet, PathJobs+"/"+id, nil, &jb)
	return jb, err
}

// Jobs lists the daemon's jobs, newest first.
func (c *Client) Jobs(ctx context.Context) ([]Job, error) {
	var l JobList
	err := c.do(ctx, http.MethodGet, PathJobs, nil, &l)
	return l.Jobs, err
}

// Cancel requests cancellation and returns the job's resulting state.
func (c *Client) Cancel(ctx context.Context, id string) (Job, error) {
	var jb Job
	err := c.do(ctx, http.MethodDelete, PathJobs+"/"+id, nil, &jb)
	return jb, err
}

// Health fetches the daemon health summary.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, PathHealth, nil, &h)
	return h, err
}

// Wait polls the job until it reaches a terminal state (or ctx ends).
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (Job, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		jb, err := c.Job(ctx, id)
		if err != nil {
			return jb, err
		}
		if jb.State.Terminal() {
			return jb, nil
		}
		select {
		case <-ctx.Done():
			return jb, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Events streams the job's events, invoking fn for each until the
// stream ends (job terminal) or ctx is cancelled.
func (c *Client) Events(ctx context.Context, id string, fn func(obs.Event) error) error {
	path := PathJobs + "/" + id + "/events"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(c.Base, "/")+path, nil)
	if err != nil {
		return err
	}
	if c.Tenant != "" {
		req.Header.Set(TenantHeader, c.Tenant)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return responseError(resp)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev obs.Event
		if err := dec.Decode(&ev); err == io.EOF {
			return nil
		} else if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("jobapi: decoding event stream: %w", err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
}
