// Package resilience is the cluster's fault layer: a deterministic
// fault-injecting HTTP transport for chaos-soaking the coordinator ↔
// worker RPC path, the per-worker circuit breaker that replaces the old
// binary failure mark in the registry, and a Byzantine worker wrapper
// that corrupts result bytes without tripping any transport- or
// key-level check (the fault only a byte audit catches).
//
// Everything here is reproducible on purpose. The transport draws every
// fault decision from a seeded sim.RNG in a fixed per-call order, so the
// fault schedule is a pure function of (seed, call index) — independent
// of goroutine interleaving, wall clock, or which host a call targets —
// and a failing chaos soak replays the identical schedule on the next
// run. The breaker is a pure state machine over injected timestamps.
package resilience

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"hammertime/internal/harness"
	"hammertime/internal/sim"
)

// Spec is a parsed fault-injection specification for the RPC transport.
// Probabilistic faults roll per call; windowed faults (spikes,
// partitions) key off the global call index, which is what makes a
// schedule like "partition worker w2 during calls 10–30" reproducible.
type Spec struct {
	// DropP is the probability a request is dropped before it is sent
	// (the connection-refused / packet-loss shape).
	DropP float64
	// Delay/DelayP inject latency before forwarding a request.
	Delay  time.Duration
	DelayP float64
	// DupP is the probability a request is delivered twice (the retry
	// amplification / at-least-once shape; cells are idempotent, so a
	// correct coordinator must not care).
	DupP float64
	// TruncateP is the probability a response body is cut short
	// (mid-transfer connection loss: the decoder sees unexpected EOF).
	TruncateP float64
	// CorruptP is the probability a response byte is flipped (bit rot on
	// the wire; JSON decoding or key verification must catch it).
	CorruptP float64
	// Spikes are windowed latency injections: every call with index in
	// [From, To) sleeps Delay before forwarding.
	Spikes []Spike
	// Partitions make a host unreachable for a call-index window: every
	// call whose target host contains Host and whose index falls in
	// [From, To) fails without being sent.
	Partitions []Partition
}

// Spike is one windowed latency injection.
type Spike struct {
	Delay    time.Duration
	From, To uint64
}

// Partition is one windowed unreachability injection, matched against
// the request's URL host by substring.
type Partition struct {
	Host     string
	From, To uint64
}

// Enabled reports whether the spec injects anything at all.
func (s Spec) Enabled() bool {
	return s.DropP > 0 || s.DelayP > 0 || s.DupP > 0 || s.TruncateP > 0 ||
		s.CorruptP > 0 || len(s.Spikes) > 0 || len(s.Partitions) > 0
}

// String renders the spec in its parseable form (for startup logs).
func (s Spec) String() string {
	var parts []string
	if s.DropP > 0 {
		parts = append(parts, fmt.Sprintf("drop:%g", s.DropP))
	}
	if s.DelayP > 0 {
		parts = append(parts, fmt.Sprintf("delay=%v:%g", s.Delay, s.DelayP))
	}
	if s.DupP > 0 {
		parts = append(parts, fmt.Sprintf("dup:%g", s.DupP))
	}
	if s.TruncateP > 0 {
		parts = append(parts, fmt.Sprintf("truncate:%g", s.TruncateP))
	}
	if s.CorruptP > 0 {
		parts = append(parts, fmt.Sprintf("corrupt:%g", s.CorruptP))
	}
	for _, sp := range s.Spikes {
		parts = append(parts, fmt.Sprintf("spike=%v@%d-%d", sp.Delay, sp.From, sp.To))
	}
	for _, p := range s.Partitions {
		parts = append(parts, fmt.Sprintf("partition=%s@%d-%d", p.Host, p.From, p.To))
	}
	if len(parts) == 0 {
		return "off"
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a comma-separated fault spec — the value of the
// -cluster-chaos flag / HAMMERTIME_CLUSTER_CHAOS env var:
//
//	drop:0.1                   drop 10% of requests unsent
//	delay=20ms:0.3             delay 30% of requests by 20ms
//	dup:0.05                   deliver 5% of requests twice
//	truncate:0.05              cut 5% of response bodies short
//	corrupt:0.05               flip a byte in 5% of response bodies
//	spike=80ms@10-30           calls 10..29 each sleep 80ms extra
//	partition=w2@40-60         calls 40..59 to hosts matching "w2" fail
//
// An empty spec parses to the zero Spec (chaos off).
func ParseSpec(spec string) (Spec, error) {
	var s Spec
	if spec == "" {
		return s, nil
	}
	parseWindow := func(part, tail string) (string, uint64, uint64, error) {
		head, window, ok := strings.Cut(tail, "@")
		if !ok {
			return "", 0, 0, fmt.Errorf("resilience: chaos %q: want %s@from-to", part, part[:strings.Index(part, "=")])
		}
		fromStr, toStr, ok := strings.Cut(window, "-")
		if !ok {
			return "", 0, 0, fmt.Errorf("resilience: chaos %q: window %q: want from-to", part, window)
		}
		from, err1 := strconv.ParseUint(fromStr, 10, 64)
		to, err2 := strconv.ParseUint(toStr, 10, 64)
		if err1 != nil || err2 != nil || to <= from {
			return "", 0, 0, fmt.Errorf("resilience: chaos %q: bad window %q", part, window)
		}
		return head, from, to, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		switch {
		case strings.HasPrefix(part, "spike="):
			head, from, to, err := parseWindow(part, strings.TrimPrefix(part, "spike="))
			if err != nil {
				return s, err
			}
			d, err := time.ParseDuration(head)
			if err != nil || d <= 0 {
				return s, fmt.Errorf("resilience: chaos %q: bad spike duration %q", part, head)
			}
			s.Spikes = append(s.Spikes, Spike{Delay: d, From: from, To: to})
		case strings.HasPrefix(part, "partition="):
			head, from, to, err := parseWindow(part, strings.TrimPrefix(part, "partition="))
			if err != nil {
				return s, err
			}
			if head == "" {
				return s, fmt.Errorf("resilience: chaos %q: empty partition host", part)
			}
			s.Partitions = append(s.Partitions, Partition{Host: head, From: from, To: to})
		default:
			head, probStr, ok := strings.Cut(part, ":")
			if !ok {
				return s, fmt.Errorf("resilience: chaos %q: want fault:probability", part)
			}
			prob, err := strconv.ParseFloat(probStr, 64)
			if err != nil || prob < 0 || prob > 1 {
				return s, fmt.Errorf("resilience: chaos %q: bad probability %q", part, probStr)
			}
			switch {
			case strings.HasPrefix(head, "delay="):
				d, err := time.ParseDuration(strings.TrimPrefix(head, "delay="))
				if err != nil || d < 0 {
					return s, fmt.Errorf("resilience: chaos %q: bad delay duration", part)
				}
				s.Delay, s.DelayP = d, prob
			case head == "drop":
				s.DropP = prob
			case head == "dup":
				s.DupP = prob
			case head == "truncate":
				s.TruncateP = prob
			case head == "corrupt":
				s.CorruptP = prob
			default:
				return s, fmt.Errorf("resilience: chaos %q: unknown fault (want drop, delay=<dur>, dup, truncate, corrupt, spike=<dur>@a-b, partition=<host>@a-b)", part)
			}
		}
	}
	return s, nil
}

// FaultRecord is one injected fault in the transport's schedule log —
// the CI chaos job uploads these as the run's reproducibility artifact.
type FaultRecord struct {
	Call   uint64 `json:"call"`
	Host   string `json:"host"`
	Path   string `json:"path"`
	Fault  string `json:"fault"`
	Detail string `json:"detail,omitempty"`
}

// maxSchedule bounds the in-memory fault log; soaks inject far fewer.
const maxSchedule = 4096

// Transport is the deterministic fault-injecting http.RoundTripper. It
// wraps a base transport and, per call, rolls a fixed sequence of draws
// from a seeded RNG deciding whether to drop, delay, duplicate, truncate
// or corrupt the exchange, plus call-index-windowed latency spikes and
// host partitions. Counters and a bounded fault schedule are exposed for
// metrics and artifacts.
type Transport struct {
	base http.RoundTripper
	spec Spec

	mu       sync.Mutex
	rng      *sim.RNG
	calls    uint64
	counters map[string]int64
	schedule []FaultRecord
}

// NewTransport wraps base (nil = http.DefaultTransport) with the fault
// spec, seeded. A zero/disabled spec still works — it forwards untouched
// and counts nothing.
func NewTransport(base http.RoundTripper, spec Spec, seed uint64) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{
		base:     base,
		spec:     spec,
		rng:      sim.NewRNG(seed),
		counters: make(map[string]int64),
	}
}

// decisions is one call's pre-drawn fault plan.
type decisions struct {
	call                             uint64
	drop, delay, dup, trunc, corrupt bool
	salt                             uint64
}

// plan draws the call's fault decisions under the lock, in fixed order —
// five uniform rolls and one salt per call, always, so the stream
// position (and therefore every later call's decisions) depends only on
// the seed and the call index.
func (t *Transport) plan() decisions {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := decisions{call: t.calls}
	t.calls++
	d.drop = t.rng.Float64() < t.spec.DropP
	d.delay = t.rng.Float64() < t.spec.DelayP
	d.dup = t.rng.Float64() < t.spec.DupP
	d.trunc = t.rng.Float64() < t.spec.TruncateP
	d.corrupt = t.rng.Float64() < t.spec.CorruptP
	d.salt = t.rng.Uint64()
	return d
}

func (t *Transport) record(call uint64, req *http.Request, fault, detail string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counters[fault]++
	if len(t.schedule) < maxSchedule {
		t.schedule = append(t.schedule, FaultRecord{
			Call: call, Host: req.URL.Host, Path: req.URL.Path, Fault: fault, Detail: detail,
		})
	}
}

// RoundTrip injects the call's planned faults around the base transport.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	d := t.plan()

	for _, p := range t.spec.Partitions {
		if d.call >= p.From && d.call < p.To && strings.Contains(req.URL.Host, p.Host) {
			t.record(d.call, req, "partitioned", p.Host)
			return nil, fmt.Errorf("resilience: chaos partition: %s unreachable (call %d)", req.URL.Host, d.call)
		}
	}
	if d.drop {
		t.record(d.call, req, "dropped", "")
		return nil, fmt.Errorf("resilience: chaos drop (call %d)", d.call)
	}
	if d.delay && t.spec.Delay > 0 {
		t.record(d.call, req, "delayed", t.spec.Delay.String())
		harness.SleepCtx(req.Context(), t.spec.Delay)
	}
	for _, sp := range t.spec.Spikes {
		if d.call >= sp.From && d.call < sp.To {
			t.record(d.call, req, "spiked", sp.Delay.String())
			harness.SleepCtx(req.Context(), sp.Delay)
		}
	}
	if d.dup && req.GetBody != nil {
		// Deliver the request once ahead of the real exchange: the server
		// sees it twice, and only idempotent handlers survive the soak.
		if dupBody, err := req.GetBody(); err == nil {
			dupReq := req.Clone(req.Context())
			dupReq.Body = dupBody
			if resp, err := t.base.RoundTrip(dupReq); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			t.record(d.call, req, "duplicated", "")
		}
	}

	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if !d.trunc && !d.corrupt {
		return resp, nil
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	if d.trunc && len(body) > 1 {
		t.record(d.call, req, "truncated", fmt.Sprintf("%d->%d bytes", len(body), len(body)/2))
		body = body[:len(body)/2]
		// ContentLength stays as the header claimed: the reader sees the
		// same unexpected EOF a mid-transfer connection loss produces.
	}
	if d.corrupt && len(body) > 0 {
		off := int(d.salt % uint64(len(body)))
		t.record(d.call, req, "corrupted", fmt.Sprintf("byte %d", off))
		body[off] ^= 0x20
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// Counters returns a copy of the lifetime fault counters, keyed by fault
// name (dropped, delayed, spiked, duplicated, truncated, corrupted,
// partitioned). The coordinator merges them onto /metrics as
// cluster.chaos.* families.
func (t *Transport) Counters() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counters))
	for k, v := range t.counters {
		out[k] = v
	}
	return out
}

// Calls returns how many RPCs have passed through the transport.
func (t *Transport) Calls() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls
}

// Schedule returns a copy of the injected-fault log (bounded at 4096
// records).
func (t *Transport) Schedule() []FaultRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]FaultRecord(nil), t.schedule...)
}

// WriteSchedule writes the fault log as JSONL — the chaos soak's
// reproducibility artifact.
func (t *Transport) WriteSchedule(w io.Writer) error {
	for _, rec := range t.Schedule() {
		if _, err := fmt.Fprintf(w, `{"call":%d,"host":%q,"path":%q,"fault":%q,"detail":%q}`+"\n",
			rec.Call, rec.Host, rec.Path, rec.Fault, rec.Detail); err != nil {
			return err
		}
	}
	return nil
}
