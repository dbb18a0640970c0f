package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hammertime/internal/serve"
	"hammertime/internal/telemetry"
)

// menuJob is one kind of job the daemon clients submit.
type menuJob struct {
	experiment string
	horizon    uint64
}

func (j menuJob) name() string {
	if j.horizon == 0 {
		return j.experiment
	}
	return fmt.Sprintf("%s@%d", j.experiment, j.horizon)
}

func (j menuJob) digestKey() string { return "daemon/" + j.name() }

// daemonMenu is the job mix as a deck of ten: e7 40%, e8 20%, e6 20%,
// e1 at horizon 200000 20%. Each client deals from its own seeded shuffle
// of the deck, so every ten jobs hold the mix exactly and the seed moves
// only the order.
var daemonMenu = []menuJob{
	{"e7", 0}, {"e7", 0}, {"e7", 0}, {"e7", 0},
	{"e8", 0}, {"e8", 0},
	{"e6", 0}, {"e6", 0},
	{"e1", 200_000}, {"e1", 200_000},
}

// dealer yields one client's job sequence.
type dealer struct {
	rng  *rand.Rand
	deck []menuJob
	next int
}

func newDealer(seed uint64, client int) *dealer {
	return &dealer{rng: rand.New(rand.NewPCG(seed, streamDaemon+uint64(client)))}
}

func (d *dealer) deal() menuJob {
	if d.next == len(d.deck) {
		d.deck = append(d.deck[:0], daemonMenu...)
		d.rng.Shuffle(len(d.deck), func(i, j int) { d.deck[i], d.deck[j] = d.deck[j], d.deck[i] })
		d.next = 0
	}
	j := d.deck[d.next]
	d.next++
	return j
}

// daemonClients is the closed loop's width: one client per core of the
// reference host, each waiting for its result before submitting again.
const daemonClients = 2

// jobSample is one job as a client saw it.
type jobSample struct {
	latency  time.Duration // submit request start → result received
	submit   time.Duration
	firstSSE time.Duration
	result   time.Duration
	queued   time.Duration // JobView Started − Submitted
	run      time.Duration // JobView Finished − Started
	spans    int           // spans in the job's trace (traced pass)
	traceGet time.Duration // GET /trace?format=jsonl (traced pass)
}

// daemonRunner drives the daemon with the closed loop in slices, so a
// run can interleave the job stream with the other phases. Each client
// keeps dealing from its own sequence across slices.
type daemonRunner struct {
	url     string
	traced  bool
	dg      digests
	led     *ledger
	dealers []*dealer
	tr      *http.Transport
	hc      *http.Client

	submitted int           // jobs issued over all slices
	wall      time.Duration // summed slice wall time
	jobs      []jobSample
	shed      int
}

func newDaemonRunner(sys *system, seed uint64, traced bool, dg digests, led *ledger) *daemonRunner {
	r := &daemonRunner{url: sys.daemon.URL, traced: traced, dg: dg, led: led}
	for c := 0; c < daemonClients; c++ {
		r.dealers = append(r.dealers, newDealer(seed, c))
	}
	r.tr = &http.Transport{MaxConnsPerHost: daemonClients, MaxIdleConnsPerHost: daemonClients}
	r.hc = &http.Client{Transport: r.tr}
	return r
}

// slice runs the closed loop until n more jobs were submitted and every
// client has its result.
func (r *daemonRunner) slice(ctx context.Context, n int) error {
	// One grid worker per job: hammerd's default (GOMAXPROCS workers)
	// would put four simulation threads on two cores and make each job's
	// latency hinge on what the other client's job is doing.
	cfg, restore, err := enterPhase(nil)
	if err != nil {
		return fmt.Errorf("daemon: %w", err)
	}
	defer restore()
	r.led.config("daemon", cfg)

	var (
		mu     sync.Mutex
		issued atomic.Int64
		wg     sync.WaitGroup
	)
	start := time.Now()
	for _, d := range r.dealers {
		wg.Add(1)
		go func(d *dealer) {
			defer wg.Done()
			for issued.Add(1) <= int64(n) {
				s, shed := runJob(ctx, r.hc, r.url, d.deal(), r.traced, r.dg, r.led)
				mu.Lock()
				if shed {
					r.shed++
				} else if s != nil {
					r.jobs = append(r.jobs, *s)
				}
				mu.Unlock()
			}
		}(d)
	}
	wg.Wait()
	r.wall += time.Since(start)
	r.submitted += n
	return nil
}

func (r *daemonRunner) close() { r.tr.CloseIdleConnections() }

// runJob submits one job, follows its SSE stream to a terminal state and
// fetches the result, recording each step in the ledger. It returns nil
// when any step failed, and shed=true when the submission was refused.
func runJob(ctx context.Context, hc *http.Client, base string, j menuJob, traced bool, dg digests, led *ledger) (_ *jobSample, shed bool) {
	ctx, span := telemetry.StartSpan(ctx, "bench:job")
	span.SetAttrs(telemetry.String("job", j.name()))
	defer span.End()
	var s jobSample
	t0 := time.Now()

	body, _ := json.Marshal(serve.JobRequest{Experiment: j.experiment, Horizon: j.horizon})
	var view serve.JobView
	status, err := call(ctx, hc, http.MethodPost, base+"/v1/jobs", body, "bench:submit", func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&view)
	})
	s.submit = time.Since(t0)
	switch {
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		led.record("daemon/submit", false, true)
		return nil, true
	case err != nil || status != http.StatusAccepted:
		led.record("daemon/submit", false, false)
		return nil, false
	}
	led.record("daemon/submit", true, false)

	final, first, err := follow(ctx, hc, base+"/v1/jobs/"+view.ID+"/events")
	s.firstSSE = first
	if err != nil || final.State != serve.StateDone || final.Started == nil || final.Finished == nil {
		led.record("daemon/stream", false, false)
		return nil, false
	}
	led.record("daemon/stream", true, false)
	s.queued = final.Started.Sub(final.Submitted)
	s.run = final.Finished.Sub(*final.Started)

	tR := time.Now()
	var table []byte
	status, err = call(ctx, hc, http.MethodGet, base+"/v1/jobs/"+view.ID+"/result", nil, "bench:result", func(r io.Reader) error {
		var rerr error
		table, rerr = io.ReadAll(r)
		return rerr
	})
	s.result = time.Since(tR)
	s.latency = time.Since(t0)
	if err != nil || status != http.StatusOK || !dg.check(j.digestKey(), string(table)) {
		led.record("daemon/result", false, false)
		return nil, false
	}
	led.record("daemon/result", true, false)

	if traced {
		tT := time.Now()
		status, err = call(ctx, hc, http.MethodGet, base+"/v1/jobs/"+view.ID+"/trace?format=jsonl", nil, "bench:trace", func(r io.Reader) error {
			sc := bufio.NewScanner(r)
			sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
			for sc.Scan() {
				if len(bytes.TrimSpace(sc.Bytes())) > 0 {
					s.spans++
				}
			}
			return sc.Err()
		})
		s.traceGet = time.Since(tT)
		if err != nil || status != http.StatusOK || s.spans == 0 {
			led.record("daemon/trace", false, false)
			return nil, false
		}
		led.record("daemon/trace", true, false)
	}
	return &s, false
}

// call performs one HTTP request inside a benchmark span and hands a 2xx
// body to read. It returns the status (0 when no response arrived).
func call(ctx context.Context, hc *http.Client, method, url string, body []byte, spanName string, read func(io.Reader) error) (int, error) {
	ctx, span := telemetry.StartSpan(ctx, spanName)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		span.EndErr(err)
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		span.EndErr(err)
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		err = read(resp.Body)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	span.EndErr(err)
	return resp.StatusCode, err
}

// follow reads a job's SSE stream until a terminal "state" event and
// returns that view and the wait for the first event.
func follow(ctx context.Context, hc *http.Client, url string) (serve.JobView, time.Duration, error) {
	ctx, span := telemetry.StartSpan(ctx, "bench:stream")
	defer span.End()
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return serve.JobView{}, 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return serve.JobView{}, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.JobView{}, 0, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	var first time.Duration
	var event string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			if first == 0 {
				first = time.Since(start)
			}
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "state":
			var v serve.JobView
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v); err != nil {
				return serve.JobView{}, first, fmt.Errorf("events: state record: %w", err)
			}
			if v.State.Terminal() {
				return v, first, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return serve.JobView{}, first, err
	}
	return serve.JobView{}, first, errors.New("events: stream ended before a terminal state")
}
