package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"txsampler"
	"txsampler/internal/faults"
	"txsampler/internal/machine"
	"txsampler/internal/profile"
	"txsampler/internal/retry"
	"txsampler/internal/telemetry"
)

// FleetConfig describes a simulated fleet campaign: Nodes uploader
// nodes each ship one profile shard per workload to a txsamplerd
// daemon, optionally through a seed-deterministic fault-injecting
// network.
type FleetConfig struct {
	// BaseURL locates the daemon, e.g. "http://127.0.0.1:8090".
	BaseURL string
	// Nodes is the simulated fleet size (default 4).
	Nodes int
	// Workloads to profile and upload (required).
	Workloads []string
	// Threads (0 = workload default) and Seed parameterize the runs.
	Threads int
	Seed    int64
	// Window is the aggregation window ordinal stamped on every shard.
	Window int
	// Plan injects machine faults into the profiled runs (the
	// crash-write storage fault does not apply; see Plan.MachineOnly).
	Plan faults.Plan
	// Net injects network faults into the uploads, seeded per node so
	// every node sees its own deterministic fault storm.
	Net faults.NetPlan
	// Quantum overrides the scheduler quantum for the profiled runs.
	Quantum int
	// Hybrid selects the slow-path execution mode of every workload
	// lock.
	Hybrid machine.HybridPolicy
	// ShardTimeout bounds each upload attempt.
	ShardTimeout time.Duration
	// Context cancels the campaign: the profiled runs stop at a
	// quantum boundary and the uploads stop retrying.
	Context context.Context
	// Metrics receives uploader counters; Log receives progress lines.
	Metrics *telemetry.Registry
	Log     io.Writer
}

// Each uploader makes up to uploadAttempts attempts per shard, backing
// off from uploadBackoff, behind a breaker that opens after as many
// consecutive failures for as long.
const (
	uploadAttempts = 5
	uploadBackoff  = 50 * time.Millisecond
)

// FleetReport summarizes a fleet campaign.
type FleetReport struct {
	Shards     int // uploads attempted (nodes x workloads)
	Accepted   int // acked 200: journaled and folded
	Duplicates int // acked as already-accepted idempotency keys
	Failed     int // uploads that exhausted retries or were rejected
	Attempts   int // total HTTP attempts across all uploads
	Net        faults.NetStats
}

// RunFleet profiles every configured workload once per node and
// uploads the shards concurrently (one goroutine per node, shards in
// workload order within a node). A canceled Context returns an error
// wrapping its cause, with the report of the uploads made so far.
//
// All nodes at the same base seed produce identical profile bytes, so
// the engine runs each workload once and shares the payload across
// nodes — the fleet dimension stresses ingestion, not the simulator.
// Each node still uploads under its own idempotency key, its own
// fault-injected transport (seeded Seed^node), and its own circuit
// breaker, so the daemon sees a genuine N-node fleet.
func RunFleet(cfg FleetConfig) (*FleetReport, error) {
	if len(cfg.Workloads) == 0 {
		return nil, fmt.Errorf("fleet: no workloads configured")
	}
	if err := cfg.Net.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}

	confighash := profile.ConfigHash(cfg.Plan, cfg.Hybrid)

	// Profile each workload once; payloads are shared across nodes.
	payloads := make(map[string][]byte, len(cfg.Workloads))
	for _, name := range cfg.Workloads {
		res, err := txsampler.Run(name, txsampler.Options{
			Threads: cfg.Threads,
			Seed:    cfg.Seed,
			Profile: true,
			Faults:  cfg.Plan.MachineOnly(),
			Quantum: cfg.Quantum,
			Hybrid:  cfg.Hybrid,
			Context: ctx,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: profiling %s: %w", name, err)
		}
		var buf bytes.Buffer
		if err := profile.FromReport(res.Report).Write(&buf); err != nil {
			return nil, fmt.Errorf("fleet: serializing %s: %w", name, err)
		}
		payloads[name] = buf.Bytes()
		logf("fleet: profiled %s (%d bytes)", name, buf.Len())
	}

	rep := &FleetReport{}
	var mu sync.Mutex
	var injectors []*faults.NetInjector
	var wg sync.WaitGroup
	for node := 0; node < cfg.Nodes; node++ {
		nodeName := fmt.Sprintf("node-%03d", node)
		var transport http.RoundTripper
		if cfg.Net.Enabled() {
			nt := faults.NewNetTransport(nil, cfg.Net, uint64(cfg.Seed)^uint64(node+1))
			injectors = append(injectors, nt.Injector)
			transport = nt
		}
		up := &Uploader{
			BaseURL: cfg.BaseURL,
			Client:  &http.Client{Transport: transport},
			Policy: retry.Policy{
				MaxAttempts: uploadAttempts,
				BaseDelay:   uploadBackoff,
				Jitter:      0.2,
				Rand:        retry.SeededRand(cfg.Seed ^ int64(node+1)),
			},
			Breaker:      &retry.Breaker{Threshold: uploadAttempts, Cooldown: uploadBackoff},
			ShardTimeout: cfg.ShardTimeout,
			Metrics:      cfg.Metrics,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range cfg.Workloads {
				shard := Shard{
					Key: fmt.Sprintf("%s/%s/t%d/s%d/%s",
						nodeName, name, cfg.Threads, cfg.Seed, confighash),
					Node:    nodeName,
					Window:  cfg.Window,
					Payload: payloads[name],
				}
				res, err := up.Upload(ctx, shard)
				mu.Lock()
				rep.Shards++
				rep.Attempts += res.Attempts
				switch {
				case err != nil:
					rep.Failed++
					logf("fleet: %s: %s failed after %d attempts: %v", nodeName, name, res.Attempts, err)
				case res.Status == StatusDuplicate:
					rep.Duplicates++
				default:
					rep.Accepted++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, inj := range injectors {
		rep.Net.Merge(inj.Snapshot())
	}
	logf("fleet: %d shards: %d accepted, %d duplicate, %d failed (%d attempts; net faults: %s)",
		rep.Shards, rep.Accepted, rep.Duplicates, rep.Failed, rep.Attempts, rep.Net)
	if ctx.Err() != nil {
		return rep, fmt.Errorf("fleet: %w", context.Cause(ctx))
	}
	return rep, nil
}
