package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"finitelb/internal/lb"
	"finitelb/internal/workload"
)

// The http-probe farm: SQ(2) over 4 servers with a 50 µs unit of work,
// driven by 2 keep-alive clients sending POST /work?work=1 back to back.
// With at most one other job in the farm and SQ(2) sampling distinct
// servers, the ideal queueing wait is zero, so a request costs HTTP plus
// dispatch plus service rendering plus completion observation.
const (
	probeN           = 4
	probeMeanService = 50 * time.Microsecond
	probeClients     = 2
	probeWork        = 1.0
)

// httpProbe drives cmd/lbd as a subprocess over loopback.
type httpProbe struct {
	cmd    *exec.Cmd
	done   chan struct{} // closed once lbd has exited and been reaped
	out    *bytes.Buffer
	killID int
	kill   *killer
	url    string
	readyS float64
	client *http.Client
}

// probeReply is POST /work's JSON body.
type probeReply struct {
	Server    int     `json:"server"`
	Work      float64 `json:"work"`
	ServiceMs float64 `json:"service_ms"`
	SojournMs float64 `json:"sojourn_ms"`
}

func (h *httpProbe) setup(e *env) error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		// A port picked free can be taken before lbd binds it; retry.
		if err = h.spawn(e); err == nil {
			return nil
		}
		h.teardown()
	}
	return err
}

// spawn starts lbd on a free loopback port and waits until /healthz
// answers and the startup QBD predictor has finished, so its background
// solve stays out of the timed window.
func (h *httpProbe) spawn(e *env) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return err
	}
	h.out = &bytes.Buffer{}
	h.cmd = exec.Command(e.lbd,
		"-addr", addr,
		"-n", strconv.Itoa(probeN),
		"-policy", "sqd:2",
		"-mean-service", probeMeanService.String(),
		"-seed", strconv.FormatUint(splitmix(e.seed, 1), 10))
	h.cmd.Stdout, h.cmd.Stderr = h.out, h.out
	h.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := h.cmd.Start(); err != nil {
		h.cmd = nil
		return fmt.Errorf("start lbd: %w", err)
	}
	h.done = make(chan struct{})
	go func(cmd *exec.Cmd, done chan struct{}) {
		_ = cmd.Wait() // the exit status is not a measurement; lbd's output is kept for errors
		close(done)
	}(h.cmd, h.done)
	h.kill = e.kill
	cmd, done := h.cmd, h.done
	h.killID = e.kill.add(func() {
		_ = cmd.Process.Kill() // fails only if it already exited
		<-done
	})

	h.url = "http://" + addr
	poll := &http.Client{Timeout: time.Second}
	defer poll.CloseIdleConnections()
	deadline := t0.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-h.done:
			return fmt.Errorf("lbd exited during start-up: %s", strings.TrimSpace(h.out.String()))
		default:
		}
		if ready(poll, h.url) {
			h.readyS = time.Since(t0).Seconds()
			h.client = &http.Client{Transport: &http.Transport{
				MaxIdleConnsPerHost: probeClients,
				MaxConnsPerHost:     probeClients,
				DisableCompression:  true,
			}}
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("lbd not ready within 30s")
}

// ready reports /healthz 200 with lbd_delay_predicted_ready 1 on /metrics.
func ready(c *http.Client, base string) bool {
	resp, err := c.Get(base + "/healthz")
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained for connection reuse only
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	resp, err = c.Get(base + "/metrics")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return err == nil && bytes.Contains(b, []byte("\nlbd_delay_predicted_ready 1\n"))
}

func (h *httpProbe) teardown() {
	if h.cmd == nil {
		return
	}
	if h.client != nil {
		h.client.CloseIdleConnections()
	}
	_ = h.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-h.done:
	case <-time.After(10 * time.Second):
		_ = h.cmd.Process.Kill()
		<-h.done
	}
	h.kill.remove(h.killID)
	h.cmd, h.client = nil, nil
}

func (h *httpProbe) measure(e *env, d time.Duration, tr *tracer) (*segment, error) {
	pid := h.cmd.Process.Pid
	seg := &segment{op: "request", latOp: "request", clients: probeClients,
		info: map[string]any{"n": probeN, "policy": "sqd:2", "mean_service_us": 50, "work": probeWork}}
	var mu sync.Mutex
	var sojourn []float64 // lbd's own sojourn per traced request, aligned with seg.lat
	var wg sync.WaitGroup
	url := h.url + "/work?work=" + strconv.FormatFloat(probeWork, 'g', -1, 64)
	start := time.Now()
	deadline := start.Add(d)
	cpuAt := sampleCPU(start, d, func() (time.Duration, error) { return procCPU(pid) })
	var ends []time.Time
	wantService := probeWork * float64(probeMeanService) / float64(time.Millisecond)
	for c := 0; c < probeClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := &segment{}
			var lat, soj []float64
			var end []time.Time
			for time.Now().Before(deadline) {
				t0 := time.Now()
				rep, code, err := h.post(url)
				t1 := time.Now()
				if err != nil {
					local.check(false, "POST /work: %v", err)
					continue
				}
				ok := code == http.StatusOK && rep.Server >= 0 && rep.Server < probeN &&
					math.Abs(rep.ServiceMs-wantService) <= 1e-9
				local.check(ok, "POST /work: status %d, server %d (want [0,%d)), service_ms %v (want %v)",
					code, rep.Server, probeN, rep.ServiceMs, wantService)
				if !ok {
					continue
				}
				l := float64(t1.Sub(t0)) / 1e3
				lat = append(lat, l)
				end = append(end, t1)
				if tr != nil {
					tr.add("lbd.POST/work", 0, 0, t0, t1)
					soj = append(soj, rep.SojournMs*1e3)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			seg.attempted += local.attempted
			seg.failed += local.failed
			for _, c := range local.checks {
				seg.note("%s", c)
			}
			seg.lat = append(seg.lat, lat...)
			ends = append(ends, end...)
			sojourn = append(sojourn, soj...)
		}()
	}
	wg.Wait()
	seg.elapsed = time.Since(start)
	seg.ops = int64(len(seg.lat))
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	cpu, err := cpuAt.wait()
	if err != nil {
		return nil, err
	}
	seg.cpu = cpu1 - cpu[0]
	seg.addWindows(start, cpu, ends, seg.lat)
	if seg.rssMB, err = procPeakRSSMB(pid); err != nil {
		return nil, err
	}
	seg.data = sojourn
	return seg, nil
}

// post sends one request and decodes the reply.
func (h *httpProbe) post(url string) (probeReply, int, error) {
	var rep probeReply
	resp, err := h.client.Post(url, "", nil)
	if err != nil {
		return rep, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return rep, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, resp.StatusCode, nil
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, resp.StatusCode, fmt.Errorf("reply %q: %w", b, err)
	}
	return rep, resp.StatusCode, nil
}

// layers splits each traced request into HTTP (client latency minus
// lbd's own sojourn for that job) and measures internal/lb alone with an
// in-process closed loop of the same farm and work.
func (h *httpProbe) layers(e *env, seg *segment, tr *tracer, r *result) error {
	sojourn := seg.data.([]float64)
	httpPart := make([]float64, len(sojourn))
	for i := range httpPart {
		httpPart[i] = seg.lat[i] - sojourn[i]
	}
	r.layer("lbd.http_us.p50", "us", quantile(httpPart, 0.5), len(httpPart))
	r.layer("lbd.http_us.p99", "us", quantile(httpPart, 0.99), len(httpPart))
	r.layer("lbd.ready_s", "s", h.readyS, 1)

	do, over, err := inProcessDo(e, max(seg.elapsed, time.Second), tr, r)
	if err != nil {
		return err
	}
	r.layer("lb.do_us.p50", "us", quantile(do, 0.5), len(do))
	r.layer("lb.do_us.p99", "us", quantile(do, 0.99), len(do))
	r.layer("lb.overhead_us.p50", "us", quantile(over, 0.5), len(over))
	r.layer("lb.overhead_us.p99", "us", quantile(over, 0.99), len(over))
	return nil
}

// inProcessDo runs the http-probe farm in process: probeClients
// goroutines calling lb.Do back to back for d. It returns the Do
// latencies and their overhead over the nominal service, both µs.
func inProcessDo(e *env, d time.Duration, tr *tracer, r *result) (do, over []float64, err error) {
	farm, err := lb.New(lb.Config{N: probeN, Policy: workload.SQD{D: 2},
		MeanService: probeMeanService, Seed: splitmix(e.seed, 2)})
	if err != nil {
		return nil, nil, err
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var accepted, failed int64
	deadline := time.Now().Add(d)
	for c := 0; c < probeClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ld, lo []float64
			var acc, bad int64
			for time.Now().Before(deadline) {
				t0 := time.Now()
				done, err := farm.Do(context.Background(), probeWork)
				t1 := time.Now()
				if err != nil || done.Dropped {
					bad++
					continue
				}
				acc++
				tr.add("lb.Do", 0, 0, t0, t1)
				ld = append(ld, float64(t1.Sub(t0))/1e3)
				lo = append(lo, float64(t1.Sub(t0)-done.Service)/1e3)
			}
			mu.Lock()
			defer mu.Unlock()
			do, over = append(do, ld...), append(over, lo...)
			accepted += acc
			failed += bad
		}()
	}
	wg.Wait()
	st, err := farm.Shutdown(context.Background())
	if err != nil {
		return nil, nil, err
	}
	r.attempted += accepted + failed
	r.failed += failed
	if st.Completed+st.Dropped != accepted {
		r.fail("in-process lb: completed %d + dropped %d != accepted %d", st.Completed, st.Dropped, accepted)
	}
	return do, over, nil
}

// unattributed is the traced client p50 minus its layer parts: HTTP,
// lb's overhead in process, and the nominal service.
func (h *httpProbe) unattributed(seg *segment, tr *tracer, r *result) float64 {
	return seg.p50() - r.perLayer["lbd.http_us.p50"].Value - r.perLayer["lb.overhead_us.p50"].Value -
		probeWork*float64(probeMeanService)/1e3
}
