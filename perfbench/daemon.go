package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"mdes/sdk/mdesclient"
)

// daemon is a running mdesd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has exited and been reaped
}

// startDaemon runs mdesd on a free loopback port with its own cache
// directory and waits until it answers /healthz.
func startDaemon(ctx context.Context, bin, cacheDir string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-cachedir", cacheDir, "-grace", "10s")
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mdesd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		rd := bufio.NewReader(stdout)
		line, _ := rd.ReadString('\n')
		addr <- line
		_, _ = io.Copy(io.Discard, rd)
		_ = cmd.Wait()
	}()
	select {
	case line := <-addr:
		const marker = "serving on "
		i := strings.Index(line, marker)
		if i < 0 {
			d.stop()
			return nil, fmt.Errorf("mdesd: unexpected first line %q", line)
		}
		d.base = strings.Fields(line[i+len(marker):])[0]
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("mdesd: no address within 20s")
	}
	cl := newClient(d.base, newTransport())
	deadline := time.Now().Add(20 * time.Second)
	for {
		if err := cl.Health(ctx); err == nil {
			return d, nil
		} else if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("mdesd: not healthy: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks the daemon to drain and waits until it has exited, killing
// it if the drain takes too long.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// daemonCounters are the daemon-wide counters the benchmark scrapes.
type daemonCounters struct {
	shed429, shed503, errors float64
	totalAlloc               float64
	gcCPUFraction            float64
}

// scrape reads /metrics (shed and error totals over all tenants) and the
// Go runtime's memstats from a tenant's expvar endpoint.
func scrape(ctx context.Context, hc *http.Client, base, tenant string) (daemonCounters, error) {
	var c daemonCounters
	body, err := get(ctx, hc, base+"/metrics")
	if err != nil {
		return c, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(f[0], "mdesd_shed_total{") && strings.Contains(f[0], `code="429"`):
			c.shed429 += v
		case strings.HasPrefix(f[0], "mdesd_shed_total{") && strings.Contains(f[0], `code="503"`):
			c.shed503 += v
		case strings.HasPrefix(f[0], "mdesd_errors_total{"):
			c.errors += v
		}
	}
	body, err = get(ctx, hc, base+"/v1/tenants/"+tenant+"/obs/debug/vars")
	if err != nil {
		return c, err
	}
	var vars struct {
		Memstats struct {
			TotalAlloc    float64
			GCCPUFraction float64
		} `json:"memstats"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return c, fmt.Errorf("expvar: %w", err)
	}
	c.totalAlloc, c.gcCPUFraction = vars.Memstats.TotalAlloc, vars.Memstats.GCCPUFraction
	return c, nil
}

func get(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// newTransport returns a loopback transport holding at most one
// connection per client goroutine.
func newTransport() *http.Transport {
	n := gomaxprocs()
	return &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConnsPerHost: n,
		MaxConnsPerHost:     n,
		DisableCompression:  true,
	}
}

// newClient returns an SDK client with retries off: a shed request is a
// failure, not hidden latency.
func newClient(base string, rt http.RoundTripper) *mdesclient.Client {
	return mdesclient.New(base, mdesclient.WithRetry(0, 0),
		mdesclient.WithHTTPClient(&http.Client{Transport: rt, Timeout: 60 * time.Second}))
}

// countingTransport counts request and response body bytes on the wire.
type countingTransport struct {
	rt                  http.RoundTripper
	requests            atomic.Int64
	reqBytes, respBytes atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	if r.ContentLength > 0 {
		t.reqBytes.Add(r.ContentLength)
	}
	resp, err := t.rt.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.respBytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// echoServer is a loopback HTTP server that does no work: it reads each
// request body the way the daemon does and answers with the bytes it was
// last given. A round trip through it is the HTTP transport of a request
// of the same size, the stage the daemon's own work sits inside.
type echoServer struct {
	srv  *http.Server
	base string
	resp atomic.Pointer[[]byte]
	done chan struct{}
}

func startEcho() (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoServer{base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	e.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20)); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(*e.resp.Load())
	})}
	go func() {
		defer close(e.done)
		_ = e.srv.Serve(ln)
	}()
	return e, nil
}

// close stops the server and waits until it has stopped.
func (e *echoServer) close() {
	_ = e.srv.Close()
	<-e.done
}

// roundTrip posts req and reads the answer, resp, to the end.
func (e *echoServer) roundTrip(hc *http.Client, req, resp []byte) error {
	e.resp.Store(&resp)
	r, err := hc.Post(e.base+"/", "application/json", bytes.NewReader(req))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	n, err := io.Copy(io.Discard, r.Body)
	if err == nil && (r.StatusCode != http.StatusOK || n != int64(len(resp))) {
		err = fmt.Errorf("echo: %s, %d of %d response bytes", r.Status, n, len(resp))
	}
	return err
}
