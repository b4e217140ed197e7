package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"sync"
	"time"

	"netpath/internal/cfg"
	"netpath/internal/dynamo"
	"netpath/internal/prog"
	"netpath/internal/server"
	"netpath/internal/snapshot"
	"netpath/internal/telemetry"
	"netpath/internal/workload"
)

const (
	// clients is the number of closed-loop clients, each with its own
	// connection: one per core of the 2-core reference host.
	clients = 2
	// snapStoreLimit is the server's -snapshot-store bound.
	snapStoreLimit = 64
	// zipfRate sizes a run: --seconds x zipfRate requests, in whole blocks,
	// is about --seconds of load at the rate the reference host sustains.
	// The work is fixed rather than the time, so every run of a seed sends
	// the same requests, and peak memory, which grows with the requests a
	// server has seen, compares like with like.
	zipfRate = 12.5
	// setupReps is how many times each workload sets up; setup_s is the
	// median.
	setupReps = 3
)

// serveInputs is serve_zipf's set-up: the request sequence with its
// oracle, and the running server.
type serveInputs struct {
	reqs []request
	vm   vmStats
	srv  *server.Server
	url  string
}

func (in *serveInputs) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := in.srv.Shutdown(ctx, nil); err != nil {
		log.Printf("perfbench: server shutdown: %v", err)
	}
}

// newServer starts the server as netpathd -tier2 -snapshot-store N would:
// every other setting is netpathd's default.
func newServer() (*server.Server, string, error) {
	srv := server.New(server.Config{
		Tier2:         true,
		Tier2Workers:  1,
		Tier2Queue:    64,
		SnapshotLimit: snapStoreLimit,
		Logf:          log.Printf,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return srv, "http://" + addr.String() + "/v1/run", nil
}

func setupServe(c runConfig) (*serveInputs, error) {
	blocks := max(1, int(math.Round(float64(c.seconds)*zipfRate/zipfBlock)))
	in := &serveInputs{reqs: zipfRequests(c.seed, blocks)}
	refs, st, err := benchRefs(serveScale)
	if err != nil {
		return nil, err
	}
	in.vm = st
	for i := range in.reqs {
		r := &in.reqs[i]
		r.ref = refs[r.bench]
		body := map[string]any{"tenant": r.tenant, "bench": r.bench, "scale": serveScale}
		if r.body, err = json.Marshal(body); err != nil {
			return nil, err
		}
	}
	in.srv, in.url, err = newServer()
	if err != nil {
		return nil, err
	}
	return in, nil
}

// sample is one request as the client saw it.
type sample struct {
	latency        time.Duration
	status         int
	queueNS, runNS int64
}

// load is the untraced HTTP measurement.
type load struct {
	samples []sample // indexed like the request sequence
	issued  int
	elapsed time.Duration
}

type runReply struct {
	Steps   int64   `json:"steps"`
	Regs    []int64 `json:"regs"`
	QueueNS int64   `json:"queue_ns"`
	RunNS   int64   `json:"run_ns"`
}

// drive sends the whole request sequence through the closed-loop clients.
func drive(in *serveInputs, out *outcome) *load {
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	ld := &load{samples: make([]sample, len(in.reqs))}
	var mu sync.Mutex
	start := time.Now()
	var last time.Time
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if ld.issued == len(in.reqs) {
			return 0, false
		}
		ld.issued++
		return ld.issued - 1, true
	}
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				s, reply, err := post(client, in.url, in.reqs[i].body)
				mu.Lock()
				ld.samples[i] = s
				if now := time.Now(); now.After(last) {
					last = now
				}
				mu.Unlock()
				switch {
				case err != nil:
					out.mismatch("request %d: %v", i, err)
				case reply != nil:
					checkReply(out, i, in.reqs[i].ref, reply.Steps, reply.Regs)
				}
			}
		}()
	}
	wg.Wait()
	ld.elapsed = last.Sub(start)
	return ld
}

// post sends one request. A request that gets no complete response, or a
// status other than 200, is a failed operation (status 0 when there was no
// response); only a 200 whose body does not decode is an error.
func post(client *http.Client, url string, body []byte) (sample, *runReply, error) {
	start := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Printf("perfbench: %v", err)
		return sample{}, nil, nil
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s := sample{latency: time.Since(start), status: resp.StatusCode}
	if err != nil {
		log.Printf("perfbench: reading reply: %v", err)
		return sample{}, nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return s, nil, nil
	}
	var r runReply
	if err := json.Unmarshal(b, &r); err != nil {
		return s, nil, fmt.Errorf("decode reply: %w", err)
	}
	s.queueNS, s.runNS = r.QueueNS, r.RunNS
	return s, &r, nil
}

// checkReply compares a run's steps and registers with the reference.
func checkReply(out *outcome, i int, ref *reference, steps int64, regs []int64) {
	if steps != ref.steps {
		out.mismatch("request %d: %d steps, reference %d", i, steps, ref.steps)
		return
	}
	if len(regs) != len(ref.regs) {
		out.mismatch("request %d: %d registers, reference %d", i, len(regs), len(ref.regs))
		return
	}
	for r, v := range regs {
		if v != ref.regs[r] {
			out.mismatch("request %d: r%d=%d, reference %d", i, r, v, ref.regs[r])
			return
		}
	}
}

func runServe(c runConfig) (*outcome, error) {
	// netpathd switches telemetry on at start-up; so does the benchmark.
	telemetry.SetActive(true)
	out := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}

	var in *serveInputs
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if in != nil {
			in.close()
		}
		start := time.Now()
		var err error
		if in, err = setupServe(c); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	resetPeakRSS()
	ld := drive(in, out)
	out.e2e["peak_rss_mb"] = peakRSSMB()
	in.close()

	var lat, admit, queue, runMS []float64
	for _, s := range ld.samples {
		if s.status != http.StatusOK {
			out.failed++
			continue
		}
		l := float64(s.latency.Nanoseconds()) / 1e6
		lat = append(lat, l)
		queue = append(queue, float64(s.queueNS)/1e6)
		runMS = append(runMS, float64(s.runNS)/1e6)
		admit = append(admit, l-float64(s.queueNS+s.runNS)/1e6)
	}
	out.attempted = ld.issued
	if len(lat) == 0 {
		return nil, fmt.Errorf("no request succeeded (%d attempted)", ld.issued)
	}
	out.note("%d requests from %d closed-loop clients, one connection each", ld.issued, clients)
	e2eNotes(out, "requests", lat, ld.elapsed.Seconds(), setups)
	byProg := map[string][]float64{}
	for i, s := range ld.samples {
		if s.status == http.StatusOK {
			byProg[in.reqs[i].bench] = append(byProg[in.reqs[i].bench], float64(s.latency.Nanoseconds())/1e6)
		}
	}
	for _, b := range workload.Names() {
		xs := byProg[b]
		out.note("  %-10s n=%-4d p50_ms %8.2f  max_ms %8.2f", b, len(xs), median(xs), quantile(xs, 1))
	}

	if !c.traced {
		return out, nil
	}
	for _, q := range []struct {
		name string
		xs   []float64
	}{{"server.admit_ms", admit}, {"server.queue_wait_ms", queue}, {"server.run_ms", runMS}} {
		out.layers[q.name+".p50"] = median(q.xs)
		out.layers[q.name+".p99"] = quantile(q.xs, 0.99)
	}
	if err := replay(c, in, ld, out); err != nil {
		return nil, err
	}
	out.layers["vm.steps_per_s"] = float64(in.vm.steps) / (float64(in.vm.ns) / 1e9)
	return out, nil
}

// snapStore mirrors the server's bounded per-(tenant, program, scheme)
// profile store: merge on hit, FIFO eviction by distinct key.
type snapStore struct {
	mu    sync.Mutex
	m     map[string]*snapshot.Snapshot
	order []string
}

func (st *snapStore) get(k string) *snapshot.Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.m[k]
}

// replayTotals accumulates engine results across the replay.
type replayTotals struct {
	mu                             sync.Mutex
	steps, fragInstrs, allInstrs   int64
	fragments, flushes, bailouts   int64
	t2promoted, t2instrs, t2deopts int64
	restored, runs                 int64
}

func (t *replayTotals) add(r dynamo.Result, warm bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	t.steps += r.Steps
	t.fragInstrs += r.FragInstrs
	t.allInstrs += r.InterpInstrs + r.FragInstrs + r.NativeInstrs
	t.fragments += int64(r.Fragments)
	t.flushes += int64(r.Flushes)
	if r.BailedOut {
		t.bailouts++
	}
	t.t2promoted += r.T2Promotions
	t.t2instrs += r.T2Instrs
	t.t2deopts += r.T2Deopts
	if warm {
		t.restored++
	}
}

// replay re-runs the requests the HTTP phase issued, in the same order and
// with the same concurrency, through the functions the server's handler
// and worker call, each inside a span.
func replay(c runConfig, in *serveInputs, ld *load, out *outcome) error {
	rec := newRecorder()
	shards := dynamo.NewShardSet(dynamo.TableBudget{}, false)
	t2 := dynamo.NewTier2Compiler(1, 64)
	shards.SetTier2(t2)
	sink := telemetry.Def.NewSink()
	store := &snapStore{m: map[string]*snapshot.Snapshot{}}
	var tot replayTotals

	var mu sync.Mutex
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= ld.issued {
					return
				}
				if err := replayOne(rec, shards, sink, store, &tot, in.reqs[i], i, out); err != nil {
					out.mismatch("replay: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	t2.Close()
	if err := rec.write(fmt.Sprintf("%s/spans-%s-seed%d.json", stateDir, c.name, c.seed)); err != nil {
		return err
	}

	l := out.layers
	for _, b := range workload.Names() {
		l["workload.build_ms."+b] = median(rec.ms("workload.Build", b))
		l["cfg.verify_ms."+b] = median(rec.ms("cfg.VerifyProgram", b))
		l["dynamo.new_ms."+b] = median(rec.ms("dynamo.New", b))
		l["dynamo.run_ms."+b] = median(rec.ms("System.RunContext", b))
		l["dataflow.analyze_ms."+b] = 0
	}
	l["cfg.verify_ms"] = median(rec.ms("cfg.VerifyProgram", "*"))
	runs := rec.ms("System.RunContext", "*")
	l["dynamo.steps_per_s"] = float64(tot.steps) / (sum(runs) / 1e3)
	l["dynamo.cached_frac"] = ratio(tot.fragInstrs, tot.allInstrs)
	l["dynamo.steps"] = float64(tot.steps)
	l["dynamo.fragments"] = float64(tot.fragments)
	l["dynamo.flushes"] = float64(tot.flushes)
	l["dynamo.bailouts"] = float64(tot.bailouts)
	l["tier2.promoted"] = float64(tot.t2promoted)
	l["tier2.compiled"] = float64(t2.Compiled())
	l["tier2.dropped"] = float64(t2.Dropped())
	l["tier2.instr_frac"] = ratio(tot.t2instrs, tot.steps)
	l["tier2.deopts"] = float64(tot.t2deopts)
	l["snapshot.restore_ms"] = median(rec.ms("System.Restore", "*"))
	l["snapshot.snapshot_ms"] = median(rec.ms("System.Snapshot", "*"))
	l["snapshot.merge_ms"] = median(rec.ms("snapshot.Merge", "*"))
	l["snapshot.restored_frac"] = ratio(tot.restored, tot.runs)
	for _, k := range []string{"staticpred.predict_ms", "profile.collect_steps_per_s",
		"experiments.collect_s", "experiments.sweep_s", "experiments.fig5_s"} {
		l[k] = 0
	}
	l["trace.wall_s"] = wall.Seconds()
	l["trace.overhead_ratio"] = wall.Seconds() / ld.elapsed.Seconds()
	out.note("traced replay of the same %d requests: %.2f s in-process vs %.2f s untraced over HTTP", ld.issued, wall.Seconds(), ld.elapsed.Seconds())
	return nil
}

// replayOne is the handler's resolve step followed by the worker's
// runDynamo, for one request.
func replayOne(rec *recorder, shards *dynamo.ShardSet, sink *telemetry.Sink, store *snapStore, tot *replayTotals, r request, i int, out *outcome) error {
	root := rec.begin("request", r.bench, i, -1)
	defer rec.end(root)
	var p *prog.Program
	var err error
	rec.call("workload.Build", r.bench, i, root, func() {
		var b workload.Benchmark
		if b, err = workload.ByName(r.bench); err == nil {
			p, err = b.Build(serveScale)
		}
	})
	if err != nil {
		return fmt.Errorf("request %d: %w", i, err)
	}
	rec.call("cfg.VerifyProgram", r.bench, i, root, func() { err = cfg.VerifyProgram(p) })
	if err != nil {
		return fmt.Errorf("request %d: %w", i, err)
	}

	// The server's runDynamo configuration for a request that sets no
	// scheme, tau or budget.
	dc := dynamo.DefaultConfig(dynamo.SchemeNET, 50)
	dc.MaxSteps = stepBudget
	dc.Telemetry = sink
	shards.Alloc(r.tenant).Apply(&dc)
	dc.Tier2Threshold = 0
	var sys *dynamo.System
	rec.call("dynamo.New", r.bench, i, root, func() { sys = dynamo.New(p, dc) })

	key := fmt.Sprintf("%s|%x|%s", r.tenant, p.Fingerprint(), dynamo.SchemeNET)
	warm := false
	if sn := store.get(key); sn != nil {
		rec.call("System.Restore", r.bench, i, root, func() { err = sys.Restore(sn) })
		warm = err == nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), server.DefaultQuotas().DefaultDeadline)
	var res dynamo.Result
	rec.call("System.RunContext", r.bench, i, root, func() { res, err = sys.RunContext(ctx) })
	cancel()
	shards.Release(r.tenant, res)
	if err != nil {
		return fmt.Errorf("request %d: run: %w", i, err)
	}
	regs := sys.Machine().Reg
	checkReply(out, i, r.ref, res.Steps, regs[:])
	tot.add(res, warm && res.RestoredFragments > 0)

	var sn *snapshot.Snapshot
	rec.call("System.Snapshot", r.bench, i, root, func() {
		sn = sys.Snapshot(r.tenant)
		sn.Clamp(sys.SnapshotLimits())
	})
	store.mu.Lock()
	defer store.mu.Unlock()
	if cur, ok := store.m[key]; ok {
		var merged *snapshot.Snapshot
		rec.call("snapshot.Merge", r.bench, i, root, func() { merged, err = snapshot.Merge(cur, sn) })
		if err != nil {
			return fmt.Errorf("request %d: merge: %w", i, err)
		}
		store.m[key] = merged
		return nil
	}
	store.m[key] = sn
	store.order = append(store.order, key)
	if len(store.order) > snapStoreLimit {
		delete(store.m, store.order[0])
		store.order = store.order[1:]
	}
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
