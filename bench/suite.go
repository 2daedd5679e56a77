package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"txsampler"
	"txsampler/internal/analyzer"
	"txsampler/internal/core"
	"txsampler/internal/decision"
	"txsampler/internal/htmbench"
	"txsampler/internal/machine"
	"txsampler/internal/pmem"
	"txsampler/internal/profile"
	"txsampler/internal/telemetry"
	"txsampler/internal/viewer"
)

// subset is the HTMBench subset S. Between them the programs cover
// true and false sharing, capacity and sync aborts, lock waiting,
// tiny transactions dominated by T_oh, deep LBR paths, the §8.2
// LevelDB case, and compute-bound programs where the scheduler gate
// and the collector see little traffic. clomp/large-2 and
// parboil/histo-2-merged are left out: they take seconds each and
// would dominate every run.
var subset = []string{
	"stamp/vacation", "stamp/intruder", "stamp/genome", "synchro/linkedlist",
	"micro/false-sharing", "parsec/dedup", "micro/deep-calls", "app/leveldb",
	"parboil/histo-1", "npb/ua", "app/avltree", "splash2/barnes",
	"splash2/water", "micro/low-abort",
}

// job is one program under one configuration. Seed, Profile and
// Metrics are filled in per run. The benchmark never sets Trace,
// Quantum or the scheduler: each of them would select the serial
// scheduler and measure a different program.
type job struct {
	label   string // unique within a workload; keys the job's digests
	program string
	opts    txsampler.Options
	// native runs the program natively before profiling it: the pair
	// of Figure 5.
	native bool
}

func suiteJobs(threads int) []job {
	jobs := make([]job, len(subset))
	for i, p := range subset {
		jobs[i] = job{label: p, program: p, opts: txsampler.Options{Threads: threads}, native: true}
	}
	return jobs
}

// modesJobs exercises the rtm layer's other paths: the elision ladder,
// the pmem persist epilogue and the STM slow path all run in Exclusive
// sections that serialize every simulated thread. The jobs are profiled
// runs only.
func modesJobs() []job {
	var jobs []job
	add := func(mode string, o txsampler.Options, programs ...string) {
		o.Threads = 14
		for _, p := range programs {
			jobs = append(jobs, job{label: mode + ":" + p, program: p, opts: o})
		}
	}
	add("elide", txsampler.Options{Elision: machine.ElisionOn},
		"elide/counter", "elide/read-mostly", "elide/sharded-map", "elide/syscall-section")
	add("pmem", txsampler.Options{Pmem: pmem.Config{Enabled: true}}, "pmem/kv", "pmem/log")
	add("stm-fallback", txsampler.Options{Hybrid: machine.HybridStmFallback},
		"stamp/vacation", "stamp/intruder", "synchro/linkedlist")
	add("serialize-on-conflict", txsampler.Options{Hybrid: machine.HybridSerializeOnConflict},
		"micro/true-sharing")
	return jobs
}

// warmUp is the set-up of every machine workload: suite-2t's jobs at
// seed 1, each checked against its recorded digest. Every run thereby
// verifies the same outputs whatever its own seed, and every program's
// code has run before the timed phase starts.
func warmUp(cfg config) error {
	const seed = 1
	for _, j := range cfg.keep(machineJobs["suite-2t"]) {
		jr, err := j.run(seed, cfg.workdir)
		if err == nil {
			err = verifyDigest("suite-2t", fmt.Sprintf("%s@%d", j.label, seed), jr.digest, map[string]string{})
		}
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// recordedDigests maps workload → "<label>@<seed>" → digest, written
// by -record-digests on a commit whose outputs are known good.
//
//go:embed digests.json
var digestsJSON []byte

var recordedDigests = func() map[string]map[string]string {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		panic("bench: digests.json: " + err.Error())
	}
	return d
}()

// jobResult is what one run of a job produced and cost.
type jobResult struct {
	wall, native, profiled, cpu  time.Duration
	nativeCycles, profiledCycles uint64
	digest                       string
}

// run executes the job the way the CLI does: a native run when the job
// has one, a profiled run with a telemetry registry, the profile saved,
// the report, advice and self-report rendered, and the saved profile
// viewed again.
func (j job) run(seed int64, dir string) (jobResult, error) {
	var jr jobResult
	o := j.opts
	o.Seed = seed
	path := filepath.Join(dir, "profile.json")
	start, cpu0 := time.Now(), cpuTime()
	var nat *txsampler.Result
	if j.native {
		var err error
		if nat, err = txsampler.Run(j.program, o); err != nil {
			return jr, err
		}
	}
	jr.native = time.Since(start)
	o.Profile, o.Metrics = true, telemetry.NewRegistry()
	t := time.Now()
	prof, err := txsampler.Run(j.program, o)
	if err != nil {
		return jr, err
	}
	jr.profiled = time.Since(t)
	if err := profile.FromReport(prof.Report).Save(path); err != nil {
		return jr, err
	}
	render(io.Discard, prof.Report, prof.Advice)
	view, err := viewProfile(path)
	if err != nil {
		return jr, err
	}
	jr.wall, jr.cpu = time.Since(start), cpuTime()-cpu0
	jr.finish(nat, prof, view)
	return jr, nil
}

func (jr *jobResult) finish(nat, prof *txsampler.Result, view []byte) {
	if nat != nil {
		jr.nativeCycles = nat.ElapsedCycles
	}
	jr.profiledCycles = prof.ElapsedCycles
	jr.digest = digest(nat, prof, view)
}

// render writes what the txsampler CLI prints for a profiled run.
func render(w io.Writer, r *analyzer.Report, a *decision.Advice) {
	r.Render(w)
	viewer.DataQuality(w, r)
	a.Render(w)
	viewer.SelfReport(w, r)
}

// viewProfile reloads a saved profile and renders its report and the
// advice derived from it, as txsampler -view does.
func viewProfile(path string) ([]byte, error) {
	db, err := profile.Load(path)
	if err != nil {
		return nil, err
	}
	rep := db.Report()
	var b bytes.Buffer
	rep.Render(&b)
	decision.Evaluate(rep, decision.Thresholds{}).Render(&b)
	return b.Bytes(), nil
}

// digest hashes a job's outputs: the simulated statistics of its runs
// and the rendered view of the reloaded profile. None of it depends on
// how the profile is encoded on disk.
func digest(nat, prof *txsampler.Result, view []byte) string {
	h := sha256.New()
	for _, r := range []*txsampler.Result{nat, prof} {
		if r == nil {
			continue
		}
		g := r.GroundTruth
		fmt.Fprintf(h, "elapsed=%d total=%d commits=%d\n", r.ElapsedCycles, r.TotalCycles, g.Commits)
		for _, c := range g.AbortCauses() {
			fmt.Fprintf(h, "aborts %v=%d\n", c, g.Aborts[c])
		}
		fmt.Fprintf(h, "per-thread commits=%v aborts=%v\n", g.PerThreadCommits, g.PerThreadAborts)
	}
	h.Write(view)
	return hex.EncodeToString(h.Sum(nil))
}

// layerStats accumulates the counts a traced job reads from the layers.
type layerStats struct {
	jobs                            int
	runWall, runCPU                 time.Duration
	kcycles                         float64
	samples                         int64
	pathHits, pathMisses, cctNodes  uint64
	commits, aborts                 uint64
	sections, fallbacks, stmCommits uint64
	profileBytes                    int64
}

// timedHandler times each sample the collector handles.
type timedHandler struct {
	col   *core.Collector
	ns, n atomic.Int64
}

func (h *timedHandler) HandleSample(s *machine.Sample) {
	t := time.Now()
	h.col.HandleSample(s)
	h.ns.Add(int64(time.Since(t)))
	h.n.Add(1)
}

// runTraced is run composed from the layers' own functions, with a span
// around each call. Its digest must equal run's for the same seed.
func (j job) runTraced(seed int64, dir string, tr *recorder, ls *layerStats) (jobResult, error) {
	var jr jobResult
	w, err := htmbench.Get(j.program)
	if err != nil {
		return jr, err
	}
	o := j.opts
	o.Seed = seed
	path := filepath.Join(dir, "profile.json")
	op := tr.root(opName, 0)
	start, cpu0 := time.Now(), cpuTime()
	var nat *txsampler.Result
	if j.native {
		if nat, err = machineRun(tr, op, w, o, nil, ls); err != nil {
			return jr, err
		}
	}
	prof, err := machineRun(tr, op, w, o, telemetry.NewRegistry(), ls)
	if err != nil {
		return jr, err
	}

	s := tr.child("profile.save", op)
	db := profile.FromReport(prof.Report)
	err = db.Save(path)
	tr.end(s)
	if err != nil {
		return jr, err
	}
	s = tr.child("viewer.render", op)
	render(io.Discard, prof.Report, prof.Advice)
	tr.end(s)

	s = tr.child("profile.load", op)
	loaded, err := profile.Load(path)
	tr.end(s)
	if err != nil {
		return jr, err
	}
	s = tr.child("profile.report", op)
	rep := loaded.Report()
	tr.end(s)
	s = tr.child("decision.evaluate", op)
	adv := decision.Evaluate(rep, decision.Thresholds{})
	tr.end(s)
	s = tr.child("viewer.render", op)
	var view bytes.Buffer
	rep.Render(&view)
	adv.Render(&view)
	tr.end(s)
	jr.wall, jr.cpu = time.Since(start), cpuTime()-cpu0
	tr.end(op)

	// Outside the operation: encode the profile once more, in memory,
	// to split profile.save into encoding and the fsynced write.
	s = tr.root("profile.encode", 0)
	err = db.Write(io.Discard)
	tr.end(s)
	if err != nil {
		return jr, err
	}
	if st, err := os.Stat(path); err == nil {
		ls.profileBytes += st.Size()
	}
	ls.jobs++
	jr.finish(nat, prof, view.Bytes())
	return jr, nil
}

// machineRun is txsampler.RunWorkload for the options a job uses, one
// span per layer call. A nil registry means a native run.
func machineRun(tr *recorder, op int, w *htmbench.Workload, o txsampler.Options, reg *telemetry.Registry, ls *layerStats) (*txsampler.Result, error) {
	profiled := reg != nil
	threads := o.Threads
	if threads == 0 {
		threads = w.DefaultThreads
	}
	// The configuration RunWorkload builds from these options; equal
	// digests of traced and untraced jobs keep the two in step.
	cfg := machine.Config{
		Threads: threads, Cache: txsampler.BenchCache(), Seed: o.Seed, StartSkew: 1024,
		Pmem: o.Pmem, Hybrid: o.Hybrid, Elision: o.Elision,
	}
	phase := "native"
	if profiled {
		cfg.Periods = txsampler.DefaultPeriods()
		phase = "profiled"
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}

	s := tr.child("htmbench.build", op)
	m := machine.New(cfg)
	var col *core.Collector
	h := &timedHandler{}
	if profiled {
		col = core.Attach(m)
		h.col = col
		m.SetHandler(h)
	}
	inst := w.BuildInstance(m, nil)
	tr.end(s)

	s = tr.child("machine.run_"+phase, op)
	runStart, cpu0 := time.Now(), cpuTime()
	err := m.Run(inst.Bodies...)
	runWall := time.Since(runStart)
	ls.runWall += runWall
	ls.runCPU += cpuTime() - cpu0
	if profiled {
		tr.hide(s, "core.handle", time.Duration(h.ns.Load()))
	}
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	s = tr.child("htmbench.check", op)
	if inst.Check != nil {
		err = inst.Check(m)
	}
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: result check failed: %w", w.Name, err)
	}
	res := &txsampler.Result{
		Workload: w.Name, Threads: threads,
		ElapsedCycles: m.Elapsed(), TotalCycles: m.TotalCycles(), GroundTruth: m.GroundTruth(),
	}
	ls.kcycles += float64(res.TotalCycles) / 1000
	if !profiled {
		return res, nil
	}
	// Every job has a profiled run, so the rtm outcomes come from it.
	g, st := res.GroundTruth, inst.Lock.Stats
	ls.commits += g.Commits
	for _, n := range g.Aborts {
		ls.aborts += n
	}
	ls.sections += st.Commits + st.StmCommits + st.Fallbacks
	ls.fallbacks += st.Fallbacks
	ls.stmCommits += st.StmCommits

	s = tr.child("analyzer.analyze", op)
	res.Report = analyzer.AnalyzeInstrumented(w.Name, col, nil, reg)
	res.Report.Quality.Injected = m.FaultStats()
	tr.end(s)
	s = tr.child("decision.evaluate", op)
	res.Advice = decision.Evaluate(res.Report, decision.Thresholds{})
	tr.end(s)
	s = tr.child("telemetry.publish", op)
	m.PublishMetrics(reg)
	col.PublishMetrics(reg)
	reg.Gauge("run.wall_ns", true).Set(uint64(runWall))
	res.Report.Self = reg.Snapshot(true)
	tr.end(s)

	ls.samples += h.n.Load()
	ls.pathHits += reg.Counter("collector.pathcache.hits").Value()
	ls.pathMisses += reg.Counter("collector.pathcache.misses").Value()
	ls.cctNodes += reg.Gauge("collector.cct.nodes", false).Value()
	return res, nil
}

// verifyDigest checks a job's digest against the recorded one, when
// the seed was recorded, and against earlier runs of the same job and
// seed in this process; then it remembers it.
func verifyDigest(workload, key, got string, seen map[string]string) error {
	if want, ok := recordedDigests[workload][key]; ok && want != got {
		return fmt.Errorf("%s %s: output digest %.12s differs from the recorded %.12s", workload, key, got, want)
	}
	if prev, ok := seen[key]; ok && prev != got {
		return fmt.Errorf("%s %s: output digest %.12s differs from an earlier run's %.12s", workload, key, got, prev)
	}
	seen[key] = got
	return nil
}

// jobTimes holds one job's measurements across a run, for the
// per-layer metrics.
type jobTimes struct {
	overhead           []float64 // simulated makespan overhead per seed
	native, profiled   float64   // Σ ms of the untraced runs
	tracedWall, twinMs float64   // Σ ms of traced jobs and their untraced twins
}

// runMachine runs a machine workload: the warm-up set-ups, then whole
// rounds of the job list while the next round is expected to fit in
// the measured time. The first round always runs, so every job is
// measured at least once; one round of a 14-thread workload can take
// longer than the measured time.
func runMachine(name string, jobs []job, seedPerRound bool) func(config, *recorder) (*record, error) {
	return func(cfg config, tr *recorder) (*record, error) {
		list := cfg.keep(jobs)
		var t tally
		v := values{}
		rec := &record{Digests: map[string]string{}}

		var cal calibrator
		cal.probe()
		var setupTimes []timed
		for i := 0; i < cfg.setupRounds; i++ {
			start := time.Now()
			err := warmUp(cfg)
			end := time.Now()
			setupTimes = append(setupTimes, timed{start: start, end: end, wall: end.Sub(start)})
			t.check(err)
			cal.due()
		}

		times := map[string]*jobTimes{}
		var ls layerStats
		var jobs []timed // the jobs of complete rounds
		g0 := readGoStats()
		start := time.Now()
		fits := func(rounds int) bool {
			el := time.Since(start)
			return rounds == 0 || el+el/time.Duration(rounds) <= cfg.seconds
		}
		ran := 0
		for round := 0; fits(round); round++ {
			seed := cfg.seed
			if seedPerRound {
				seed += int64(round)
			}
			var done []timed
			for _, j := range list {
				cal.due()
				jt := times[j.label]
				if jt == nil {
					jt = &jobTimes{}
					times[j.label] = jt
				}
				key := fmt.Sprintf("%s@%d", j.label, seed)
				began := time.Now()
				jr, err := measure(name, key, j, seed, cfg.workdir, tr, &ls, jt, rec.Digests, ran%2 == 1)
				ran++
				if !t.check(wrapKey(name, key, err)) {
					continue
				}
				if cfg.verbose {
					fmt.Fprintf(os.Stderr, "bench: %s %s wall=%.1fms native=%.1fms profiled=%.1fms\n",
						name, key, ms(jr.wall), ms(jr.native), ms(jr.profiled))
				}
				done = append(done, timed{start: began, end: time.Now(), wall: jr.wall, cpu: jr.cpu})
			}
			if len(done) == len(list) {
				jobs = append(jobs, done...)
			}
		}
		setGoMetrics(v, g0, ran)
		cal.probe()

		// Geometric means over the jobs, as suites are summarized (and as
		// Figure 5 is): a program whose work swings with the seed moves
		// them by its share only.
		e2e := func(c *calibrator) values {
			setups, _ := c.scaled(setupTimes)
			walls, cpus := c.scaled(jobs)
			return values{
				"setup_s":       median(setups) / 1000,
				"ops_per_s":     ratio(1000, geomean(walls)),
				"cpu_ms_per_op": geomean(cpus),
			}
		}
		maps.Copy(v, e2e(&cal))
		rec.Uncalibrated = e2e(&calibrator{})
		v["go.maxrss_mb"] = maxRSSMiB()
		if tr != nil {
			tracedMetrics(v, times, &ls, tr.layerTimes())
			v.scaleLayers(cal.scale())
		}
		res, err := t.result(v, cfg.traced)
		rec.Result = res
		return rec, err
	}
}

// measure runs one job and checks its digest. A traced run pairs the
// job with a traced twin that must reproduce the digest; which of the
// pair runs first alternates, so neither side always meets the warmer
// heap.
func measure(name, key string, j job, seed int64, dir string, tr *recorder, ls *layerStats, jt *jobTimes, seen map[string]string, twinFirst bool) (jobResult, error) {
	var jr, tj jobResult
	var err error
	if tr != nil && twinFirst {
		tj, err = j.runTraced(seed, dir, tr, ls)
		if err == nil {
			jr, err = j.run(seed, dir)
		}
	} else {
		jr, err = j.run(seed, dir)
		if tr != nil && err == nil {
			tj, err = j.runTraced(seed, dir, tr, ls)
		}
	}
	if err == nil {
		err = verifyDigest(name, key, jr.digest, seen)
	}
	if err != nil {
		return jr, err
	}
	if tr != nil {
		if tj.digest != jr.digest {
			return jr, fmt.Errorf("traced digest %.12s differs from untraced %.12s", tj.digest, jr.digest)
		}
		jt.tracedWall += ms(tj.wall)
		jt.twinMs += ms(jr.wall)
	}
	if j.native {
		jt.native += ms(jr.native)
		jt.profiled += ms(jr.profiled)
		jt.overhead = append(jt.overhead, float64(jr.profiledCycles)/float64(jr.nativeCycles)-1)
	}
	return jr, nil
}

func wrapKey(workload, key string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s %s: %w", workload, key, err)
}

// tracedMetrics derives the per-layer metrics of a traced run, as means
// per traced job.
func tracedMetrics(v values, times map[string]*jobTimes, ls *layerStats, lt layerTimes) {
	n := float64(ls.jobs)
	perJob := func(name string) float64 { return ratio(ms(lt.self[name]), n) }
	for _, name := range []string{"htmbench.build", "htmbench.check", "analyzer.analyze",
		"decision.evaluate", "viewer.render", "telemetry.publish", "profile.encode",
		"profile.save", "profile.load", "profile.report", "core.handle"} {
		v[name+"_ms"] = perJob(name)
	}
	// Machine.Run as a whole, the collector's handler included.
	v["machine.run_native_ms"] = perJob("machine.run_native")
	v["machine.run_profiled_ms"] = perJob("machine.run_profiled") + perJob("core.handle")
	v["machine.run_cpu_ms"] = ratio(ms(ls.runCPU), n)
	v["machine.cpu_per_wall"] = ratio(float64(ls.runCPU), float64(ls.runWall))
	v["machine.ns_per_kcycle"] = ratio(float64(ls.runWall), ls.kcycles)
	v["machine.sim_kcycles"] = ratio(ls.kcycles, n)
	v["rtm.commit_ratio"] = ratio(float64(ls.commits), float64(ls.commits+ls.aborts))
	v["rtm.fallback_ratio"] = ratio(float64(ls.fallbacks), float64(ls.sections))
	v["rtm.stm_commit_ratio"] = ratio(float64(ls.stmCommits), float64(ls.sections))
	v["core.samples"] = ratio(float64(ls.samples), n)
	v["core.handle_ns_per_sample"] = ratio(float64(lt.self["core.handle"]), float64(ls.samples))
	v["core.pathcache_hit_ratio"] = ratio(float64(ls.pathHits), float64(ls.pathHits+ls.pathMisses))
	v["core.cct_nodes"] = ratio(float64(ls.cctNodes), n)
	v["profile.bytes"] = ratio(float64(ls.profileBytes), n)

	var native, profiled, traced, twins float64
	geo, programs := 0.0, 0
	for _, jt := range times {
		native += jt.native
		profiled += jt.profiled
		traced += jt.tracedWall
		twins += jt.twinMs
		if len(jt.overhead) > 0 {
			geo += math.Log1p(trimmedMean(jt.overhead))
			programs++
		}
	}
	v["machine.host_overhead_x"] = ratio(profiled, native)
	if programs > 0 {
		v["machine.sim_overhead_pct"] = 100 * math.Expm1(geo/float64(programs))
	}
	v["bench.trace_overhead_pct"] = 100 * (ratio(traced, twins) - 1)
	v["bench.unattributed_pct"] = 100 * ratio(float64(lt.rootSelf), float64(lt.rootTotal))
}

// digestSeeds is how many seeds, from 1, digests.json records per job.
const digestSeeds = 10

// recordDigests runs every machine job for seeds 1..digestSeeds and
// writes the digests file the benchmark embeds.
func recordDigests(path string, workdir string) error {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, "digests-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	out := map[string]map[string]string{}
	for _, name := range workloadOrder {
		jobs, ok := machineJobs[name]
		if !ok {
			continue
		}
		out[name] = map[string]string{}
		for seed := int64(1); seed <= digestSeeds; seed++ {
			for _, j := range jobs {
				jr, err := j.run(seed, dir)
				if err != nil {
					return fmt.Errorf("%s %s@%d: %w", name, j.label, seed, err)
				}
				out[name][fmt.Sprintf("%s@%d", j.label, seed)] = jr.digest
			}
			fmt.Fprintf(os.Stderr, "bench: recorded %s seed %d\n", name, seed)
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

var machineJobs = map[string][]job{
	"suite-14t": suiteJobs(14),
	"suite-2t":  suiteJobs(2),
	"modes-14t": modesJobs(),
}

// workloadOrder lists the workloads; BENCHMARK.json holds the reason
// each was chosen.
var workloadOrder = []string{"suite-14t", "suite-2t", "modes-14t", "fleet-ingest"}

var workloads = map[string]func(config, *recorder) (*record, error){
	"suite-14t":    runMachine("suite-14t", machineJobs["suite-14t"], false),
	"suite-2t":     runMachine("suite-2t", machineJobs["suite-2t"], true),
	"modes-14t":    runMachine("modes-14t", machineJobs["modes-14t"], false),
	"fleet-ingest": runFleet,
}

func workloadNames() string { return strings.Join(workloadOrder, ", ") }
