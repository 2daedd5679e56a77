package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"txsampler/internal/analyzer"
	"txsampler/internal/core"
	"txsampler/internal/profile"
	"txsampler/internal/record"
	"txsampler/internal/telemetry"
)

// Admission modes of the degradation ladder. The daemon starts in
// live mode and moves down (and back up) as the merge backlog grows
// and drains; shedding is not a mode but the ladder's floor, entered
// per-request when the journal backlog exceeds MaxLag.
const (
	// modeLive merges shards on arrival: journal, enqueue, ack 200.
	modeLive = iota
	// modeLag journals and acks (202) without enqueueing; a catch-up
	// goroutine re-reads deferred records from disk once the merge
	// queue drains below the low watermark. Memory stays bounded by
	// the queue — overload spills to disk, not to the heap.
	modeLag
)

// Config tunes the daemon. The zero value of every field gets a sane
// default from Open.
type Config struct {
	// Dir is the state directory holding the shard journal. Required.
	Dir string
	// QueueCap bounds the in-memory merge queue (default 256 shards).
	QueueCap int
	// HighWater is the queue depth that flips live -> lag (default
	// 3/4 of QueueCap); LowWater is the depth the queue must drain to
	// before catch-up re-feeds it (default 1/4 of QueueCap).
	HighWater, LowWater int
	// MaxLag bounds journaled-but-unmerged shards; beyond it ingest
	// sheds with 429 + Retry-After instead of growing the backlog
	// (default 8x QueueCap).
	MaxLag int
	// RetryAfter is the hint sent with a 429 (default 500ms).
	RetryAfter time.Duration
	// MaxShardBytes caps an ingest body (default 32 MiB).
	MaxShardBytes int64
	// Retain keeps only the newest N windows; older windows are
	// compacted — deleted from the in-memory aggregate map so their
	// heap is reclaimed — and answer 410 Gone. 0 keeps everything.
	Retain int
	// MergeWorkers sizes the merge worker pool (default GOMAXPROCS).
	// Workers decode shard payloads in parallel and feed the window
	// aggregates through a serialized commutative fold, so the merged
	// result is independent of worker count and completion order.
	MergeWorkers int
	// Metrics receives the daemon's counters and gauges (nil = none).
	Metrics *telemetry.Registry
	// Log receives one line per notable event (nil silences).
	Log io.Writer

	// MergeGate, when non-nil, is called by the merger before every
	// merge. It is a test hook: blocking it stalls the merge pipeline
	// so backpressure and the lag ladder can be exercised
	// deterministically.
	MergeGate func()
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.HighWater <= 0 || c.HighWater > c.QueueCap {
		c.HighWater = c.QueueCap * 3 / 4
	}
	if c.HighWater < 1 {
		c.HighWater = 1
	}
	if c.LowWater <= 0 || c.LowWater >= c.HighWater {
		c.LowWater = c.QueueCap / 4
	}
	if c.MaxLag <= 0 {
		c.MaxLag = 8 * c.QueueCap
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 500 * time.Millisecond
	}
	if c.MaxShardBytes <= 0 {
		c.MaxShardBytes = 32 << 20
	}
	if c.MergeWorkers <= 0 {
		c.MergeWorkers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Server is the fleet ingest daemon: HTTP handlers over a journaled,
// backpressured merge pipeline. Create with Open, serve Handler, stop
// with Close.
type Server struct {
	cfg Config

	// admission state, guarded by mu. Journal appends happen under mu
	// too: the journal is the ordering authority, and admission
	// decisions must see a consistent (accepted, appended, mode) "
	// snapshot against it.
	mu       sync.Mutex
	log      *record.Log
	accepted map[string]struct{}
	appended uint64 // shards journaled (replay included)
	mode     int

	merged   atomic.Uint64 // shards merged into aggregates (replay included)
	replayed uint64        // shards rebuilt from the journal at startup

	// aggMu serializes the commutative folds the merge workers feed
	// into the window aggregates, and guards the retention watermark.
	aggMu   sync.Mutex
	windows map[int]*profile.Aggregate
	// compactedBelow is the retention horizon: every window ordinal
	// below it has been compacted (aggregate deleted, memory
	// reclaimed) and is permanently 410 Gone. Monotone — it only
	// rises as newer windows arrive — so a compaction decision never
	// depends on merge interleaving, and a journal replay reaches the
	// same horizon by the same appends.
	compactedBelow int

	queue  chan Shard
	closed chan struct{}
	wg     sync.WaitGroup

	// counters
	ctrIngested  *telemetry.Counter
	ctrDeferred  *telemetry.Counter
	ctrShed      *telemetry.Counter
	ctrDup       *telemetry.Counter
	ctrRejected  *telemetry.Counter
	ctrReplayed  *telemetry.Counter
	ctrMerged    *telemetry.Counter
	ctrDegraded  *telemetry.Counter
	ctrCompacted *telemetry.Counter
	gaugeLag     *telemetry.Gauge
	gaugeQueue   *telemetry.Gauge
	gaugeWindows *telemetry.Gauge
}

// Open builds the server: it replays the journal in cfg.Dir —
// re-verifying every payload's checksums and deduplicating by
// idempotency key — rebuilds the window aggregates, and starts the
// merge pipeline. After a kill -9 the rebuilt aggregates are
// byte-identical to what an uninterrupted daemon would hold for the
// same accepted shard set. Damage other than a torn final append fails
// Open with the journal left as it was.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("fleet: Config.Dir is required")
	}
	s := &Server{
		cfg:      cfg,
		accepted: make(map[string]struct{}),
		windows:  make(map[int]*profile.Aggregate),
		queue:    make(chan Shard, cfg.QueueCap),
		closed:   make(chan struct{}),
	}
	reg := cfg.Metrics
	s.ctrIngested = reg.Counter("fleet.ingested")
	s.ctrDeferred = reg.Counter("fleet.deferred")
	s.ctrShed = reg.Counter("fleet.shed")
	s.ctrDup = reg.Counter("fleet.duplicates")
	s.ctrRejected = reg.Counter("fleet.rejected")
	s.ctrReplayed = reg.Counter("fleet.replayed")
	s.ctrMerged = reg.Counter("fleet.merged")
	s.ctrDegraded = reg.Counter("fleet.degraded_transitions")
	s.ctrCompacted = reg.Counter("fleet.windows_compacted")
	s.gaugeLag = reg.Gauge("fleet.merge_lag", false)
	s.gaugeQueue = reg.Gauge("fleet.queue_depth", false)
	s.gaugeWindows = reg.Gauge("fleet.windows", false)

	log, err := record.Open(filepath.Join(cfg.Dir, JournalName), journalMagic, journalVersion, func(p []byte) error {
		rec, err := decodeShard(p)
		if err != nil {
			return err
		}
		if _, dup := s.accepted[rec.Key]; dup {
			// A crash between fsync and ack can journal a shard whose
			// client retried it later; the second copy merges to
			// nothing.
			return nil
		}
		db, err := profile.Decode(rec.Payload)
		if err != nil {
			return fmt.Errorf("fleet: replay %s: %w", rec.Key, err)
		}
		s.accepted[rec.Key] = struct{}{}
		// Replay folds under the same retention horizon as live merge:
		// the watermark is a pure function of the append sequence, so
		// the rebuilt retained aggregates are byte-identical and the
		// compacted ones never re-materialize.
		if rec.Window >= s.compactedBelow {
			s.window(rec.Window).Add(db)
			s.compactLocked()
		}
		s.replayed++
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.log = log
	s.appended = uint64(len(s.accepted))
	s.merged.Store(s.appended)
	s.ctrReplayed.Add(s.replayed)
	s.ctrMerged.Add(s.replayed)
	s.gaugeWindows.Set(uint64(len(s.windows)))
	if s.replayed > 0 {
		s.logf("fleet: replayed %d shards into %d windows", s.replayed, len(s.windows))
	}
	s.wg.Add(cfg.MergeWorkers)
	for i := 0; i < cfg.MergeWorkers; i++ {
		go s.merger()
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, format+"\n", args...)
	}
}

// window returns the aggregate for a window, creating it. Callers
// hold aggMu (or are the single replay goroutine).
func (s *Server) window(w int) *profile.Aggregate {
	a := s.windows[w]
	if a == nil {
		a = profile.NewAggregate()
		s.windows[w] = a
	}
	return a
}

// Replayed returns the number of shards rebuilt from the journal at
// startup.
func (s *Server) Replayed() uint64 { return s.replayed }

// Lag returns the journaled-but-unmerged shard count.
func (s *Server) Lag() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lagLocked()
}

func (s *Server) lagLocked() uint64 {
	return s.appended - s.merged.Load()
}

// Ready implements the readiness probe: the daemon is ready while it
// accepts shards (live or lag mode); it is unready while the ladder
// has hit its shedding floor.
func (s *Server) Ready() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lag := s.lagLocked(); lag >= uint64(s.cfg.MaxLag) {
		return fmt.Errorf("shedding: merge lag %d >= max %d", lag, s.cfg.MaxLag)
	}
	return nil
}

// compactLocked enforces the retention policy after a fold: when more
// than Retain windows are live, every window below the Retain largest
// ordinals is deleted from the aggregate map — the CCT, per-thread
// table, and program set it held become garbage — and the horizon
// watermark rises to the smallest surviving ordinal. Caller holds
// aggMu (or is the single-threaded replay).
func (s *Server) compactLocked() {
	if s.cfg.Retain <= 0 || len(s.windows) <= s.cfg.Retain {
		return
	}
	ords := make([]int, 0, len(s.windows))
	for w := range s.windows {
		ords = append(ords, w)
	}
	sort.Ints(ords)
	cut := ords[len(ords)-s.cfg.Retain]
	for _, w := range ords {
		if w < cut {
			delete(s.windows, w)
			s.ctrCompacted.Add(1)
		}
	}
	if cut > s.compactedBelow {
		s.compactedBelow = cut
	}
}

// merger is one merge worker. Workers race on the queue and decode
// payloads concurrently; the folds themselves serialize on aggMu.
// Every combining operation is commutative, so the aggregates are
// independent of which worker merged what and in what order.
func (s *Server) merger() {
	defer s.wg.Done()
	for {
		select {
		case rec := <-s.queue:
			s.merge(rec)
		case <-s.closed:
			// Drain what is already queued so Close leaves merge lag
			// only for journaled-deferred shards (replayed next open).
			for {
				select {
				case rec := <-s.queue:
					s.merge(rec)
				default:
					return
				}
			}
		}
	}
}

func (s *Server) merge(rec Shard) {
	if s.cfg.MergeGate != nil {
		s.cfg.MergeGate()
	}
	db, err := profile.Decode(rec.Payload)
	if err != nil {
		// Verified at ingest and checksummed on disk; reaching here
		// means in-memory corruption. Count it, never crash the
		// pipeline.
		s.ctrRejected.Add(1)
		s.logf("fleet: merge %s: %v", rec.Key, err)
	} else {
		s.aggMu.Lock()
		if rec.Window >= s.compactedBelow {
			s.window(rec.Window).Add(db)
			s.compactLocked()
		}
		// A shard below the horizon stays journaled but folds to
		// nothing: its window is already compacted and can never be
		// served again.
		s.gaugeWindows.Set(uint64(len(s.windows)))
		s.aggMu.Unlock()
	}
	s.merged.Add(1)
	s.ctrMerged.Add(1)
	s.gaugeLag.Set(s.Lag())
	s.gaugeQueue.Set(uint64(len(s.queue)))
}

// catchup re-reads deferred records from the journal file and feeds
// them to the merge queue once it drains below the low watermark,
// then returns the ladder to live mode. It owns the byte range
// [from, journal end): while the server is in lag mode every new
// append lands in that range, so nothing is merged twice and nothing
// is skipped.
func (s *Server) catchup(from int64) {
	defer s.wg.Done()
	pos := from
	for {
		// Wait for the queue to drain below the low watermark.
		for len(s.queue) > s.cfg.LowWater {
			select {
			case <-s.closed:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
		s.mu.Lock()
		end := s.log.Size()
		if end == pos {
			// Caught up: back to merge-on-arrival.
			s.mode = modeLive
			s.mu.Unlock()
			s.logf("fleet: caught up; back to live mode")
			return
		}
		s.mu.Unlock()

		recs, err := readShards(s.log, pos, end)
		if err != nil {
			// Disk-level trouble: stay in lag mode and report; the
			// journal is still the durable truth for the next open.
			s.logf("fleet: catch-up read failed: %v", err)
			select {
			case <-s.closed:
				return
			case <-time.After(100 * time.Millisecond):
			}
			continue
		}
		for _, rec := range recs {
			select {
			case s.queue <- rec:
			case <-s.closed:
				return
			}
		}
		pos = end
	}
}

// Close stops the pipeline: the merge workers drain the in-memory
// queue and the journal is closed. Shards journaled but not merged (deferred
// during lag mode) are replayed by the next Open — nothing
// acknowledged is ever lost.
func (s *Server) Close() error {
	s.mu.Lock()
	select {
	case <-s.closed:
		s.mu.Unlock()
		return nil
	default:
	}
	close(s.closed)
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}

// Handler returns the daemon's HTTP API:
//
//	POST /ingest    framed profile bytes (X-Fleet-Key/-Node/-Window)
//	GET  /profile   ?window=N -> framed aggregate database
//	GET  /top       ?window=N&by=aborts|sharing|time&k=K -> text ranking
//	GET  /stats     JSON admission/merge/window statistics
//	GET  /healthz   process liveness
//	GET  /readyz    admission readiness (503 while shedding)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/profile", s.handleProfile)
	mux.HandleFunc("/top", s.handleTop)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if err := s.Ready(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		s.mu.Lock()
		mode := s.mode
		s.mu.Unlock()
		fmt.Fprintf(w, "ready (%s)\n", modeName(mode))
	})
	return mux
}

func modeName(mode int) string {
	if mode == modeLag {
		return "degraded: journal-now-merge-later"
	}
	return "live: merge-on-arrival"
}

// Shard ingest statuses reported in the X-Fleet-Status header.
const (
	StatusMerged    = "accepted"  // journaled and queued for merge
	StatusDeferred  = "deferred"  // journaled; merge deferred to catch-up
	StatusDuplicate = "duplicate" // idempotency key already accepted
)

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxShardBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		s.ctrRejected.Add(1)
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("reading shard body: %v", err), code)
		return
	}
	// The database's frame CRC32 and SHA-256 double as the wire
	// integrity check: a payload truncated by a mid-body connection
	// reset or corrupted in flight never reaches the journal.
	if _, err := profile.Decode(data); err != nil {
		s.ctrRejected.Add(1)
		http.Error(w, fmt.Sprintf("shard payload: %v", err), http.StatusBadRequest)
		return
	}
	key := r.Header.Get(HeaderKey)
	if key == "" {
		sum := sha256.Sum256(data)
		key = hex.EncodeToString(sum[:])
	}
	window := 0
	if h := r.Header.Get(HeaderWindow); h != "" {
		window, err = strconv.Atoi(h)
		if err != nil || window < 0 {
			s.ctrRejected.Add(1)
			http.Error(w, fmt.Sprintf("bad %s header %q", HeaderWindow, h), http.StatusBadRequest)
			return
		}
	}
	rec := Shard{Key: key, Node: r.Header.Get(HeaderNode), Window: window, Payload: data}

	s.mu.Lock()
	if _, dup := s.accepted[key]; dup {
		s.mu.Unlock()
		s.ctrDup.Add(1)
		w.Header().Set(HeaderStatus, StatusDuplicate)
		fmt.Fprintln(w, "duplicate: already accepted")
		return
	}
	if lag := s.lagLocked(); lag >= uint64(s.cfg.MaxLag) {
		s.mu.Unlock()
		s.ctrShed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		http.Error(w, fmt.Sprintf("shedding: merge lag %d >= max %d; retry later", lag, s.cfg.MaxLag),
			http.StatusTooManyRequests)
		return
	}
	// Journal before acknowledging: the fsynced append is the commit
	// point. A kill -9 after this line loses nothing; a kill before
	// it loses only an unacknowledged shard the client will retry.
	off, err := s.log.Append(encodeShard(rec))
	if err != nil {
		s.mu.Unlock()
		s.ctrRejected.Add(1)
		http.Error(w, fmt.Sprintf("journal append: %v", err), http.StatusInternalServerError)
		return
	}
	s.accepted[key] = struct{}{}
	s.appended++
	status := StatusMerged
	code := http.StatusOK
	if s.mode == modeLive {
		if len(s.queue) >= s.cfg.HighWater {
			// High watermark: step down the ladder. This record is
			// the catch-up goroutine's first deferred record.
			s.mode = modeLag
			s.ctrDegraded.Add(1)
			s.wg.Add(1)
			go s.catchup(off)
			s.logf("fleet: queue depth %d >= high watermark %d; degrading to journal-now-merge-later", len(s.queue), s.cfg.HighWater)
			status, code = StatusDeferred, http.StatusAccepted
		} else {
			select {
			case s.queue <- rec:
			default:
				// Lost the race for the last slot: degrade as above.
				s.mode = modeLag
				s.ctrDegraded.Add(1)
				s.wg.Add(1)
				go s.catchup(off)
				status, code = StatusDeferred, http.StatusAccepted
			}
		}
	} else {
		status, code = StatusDeferred, http.StatusAccepted
	}
	s.mu.Unlock()

	s.ctrIngested.Add(1)
	if status == StatusDeferred {
		s.ctrDeferred.Add(1)
	}
	s.gaugeLag.Set(s.Lag())
	s.gaugeQueue.Set(uint64(len(s.queue)))
	w.Header().Set(HeaderStatus, status)
	w.WriteHeader(code)
	fmt.Fprintln(w, status)
}

// Ingest API headers.
const (
	// HeaderKey is the shard's idempotency key; absent, the payload's
	// SHA-256 is used. Retried uploads with the same key are
	// acknowledged but never double-counted.
	HeaderKey = "X-Fleet-Key"
	// HeaderNode names the origin node (diagnostics only).
	HeaderNode = "X-Fleet-Node"
	// HeaderWindow is the shard's aggregation window ordinal
	// (default 0). Windows are logical — assigned by the node, not by
	// daemon wall clock — so aggregates stay reproducible.
	HeaderWindow = "X-Fleet-Window"
	// HeaderStatus reports the ingest outcome (see Status*).
	HeaderStatus = "X-Fleet-Status"
)

// retainedLocked reports whether a window ordinal is above the
// retention horizon. Compacted windows are gone from memory (the
// journal still holds their shards); only ordinals at or above the
// watermark are ever served. Caller holds aggMu.
func (s *Server) retainedLocked(window int) bool {
	return window >= s.compactedBelow
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	window, err := windowParam(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	db, _ := s.windowDatabase(w, window)
	if db == nil {
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := db.Write(w); err != nil {
		s.logf("fleet: writing window %d aggregate: %v", window, err)
	}
}

func (s *Server) handleTop(w http.ResponseWriter, r *http.Request) {
	window, err := windowParam(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	k := 5
	if h := r.URL.Query().Get("k"); h != "" {
		if k, err = strconv.Atoi(h); err != nil || k <= 0 {
			http.Error(w, fmt.Sprintf("bad k %q", h), http.StatusBadRequest)
			return
		}
	}
	by := r.URL.Query().Get("by")
	if by == "" {
		by = "aborts"
	}
	db, shards := s.windowDatabase(w, window)
	if db == nil {
		return
	}

	rep := db.Report()
	var hot []analyzer.HotContext
	var value func(*core.Metrics) uint64
	switch by {
	case "aborts":
		hot = rep.TopAbortWeight(k)
		// Display the same app-abort weight the ranking sorts by
		// (ambient causes excluded).
		value = (*core.Metrics).AppAbortWeight
	case "sharing":
		hot = rep.TopFalseSharing(k)
		value = func(m *core.Metrics) uint64 { return m.FalseSharing }
	case "time":
		hot = rep.TopTime(k)
		value = (*core.Metrics).T
	default:
		http.Error(w, fmt.Sprintf("bad by %q (want aborts, sharing, or time)", by), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "window %d top %d by %s (%d shards)\n", window, k, by, shards)
	for i, hc := range hot {
		fmt.Fprintf(w, "%2d. %12d  %s\n", i+1, value(&hc.Metrics), hc.Path())
	}
}

// windowDatabase renders a window's aggregate, named
// fleet/window-N[<programs joined by +>], with its shard count. A
// compacted window answers 410 Gone and an unknown one 404; both
// return a nil database.
func (s *Server) windowDatabase(w http.ResponseWriter, window int) (*profile.Database, int) {
	s.aggMu.Lock()
	retained := s.retainedLocked(window)
	agg := s.windows[window]
	var db *profile.Database
	var shards int
	if retained && agg != nil {
		db = agg.Database(fmt.Sprintf("fleet/window-%d[%s]", window, strings.Join(agg.Programs(), "+")))
		shards = agg.Shards()
	}
	s.aggMu.Unlock()
	switch {
	case !retained:
		http.Error(w, fmt.Sprintf("window %d compacted (retain=%d)", window, s.cfg.Retain), http.StatusGone)
	case db == nil:
		http.Error(w, fmt.Sprintf("no aggregate for window %d", window), http.StatusNotFound)
	}
	return db, shards
}

func windowParam(r *http.Request) (int, error) {
	h := r.URL.Query().Get("window")
	if h == "" {
		return 0, nil
	}
	w, err := strconv.Atoi(h)
	if err != nil || w < 0 {
		return 0, fmt.Errorf("bad window %q", h)
	}
	return w, nil
}

// Stats is the /stats response document.
type Stats struct {
	Mode     string        `json:"mode"`
	Lag      uint64        `json:"merge_lag"`
	Queue    int           `json:"queue_depth"`
	Appended uint64        `json:"shards_journaled"`
	Merged   uint64        `json:"shards_merged"`
	Replayed uint64        `json:"shards_replayed"`
	Windows  []WindowStats `json:"windows"`
	Retain   int           `json:"retain,omitempty"`
	// CompactedBelow is the retention horizon: windows below this
	// ordinal were dropped from memory and answer 410 Gone.
	CompactedBelow int                     `json:"compacted_below,omitempty"`
	Counters       []telemetry.MetricValue `json:"counters,omitempty"`
}

// WindowStats summarizes one aggregation window.
type WindowStats struct {
	Window   int  `json:"window"`
	Shards   int  `json:"shards"`
	Retained bool `json:"retained"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	st := Stats{
		Mode:     modeName(s.mode),
		Lag:      s.lagLocked(),
		Queue:    len(s.queue),
		Appended: s.appended,
		Merged:   s.merged.Load(),
		Replayed: s.replayed,
		Retain:   s.cfg.Retain,
	}
	s.mu.Unlock()
	s.aggMu.Lock()
	st.CompactedBelow = s.compactedBelow
	wins := make([]int, 0, len(s.windows))
	for win := range s.windows {
		wins = append(wins, win)
	}
	sort.Ints(wins)
	for _, win := range wins {
		st.Windows = append(st.Windows, WindowStats{
			Window: win, Shards: s.windows[win].Shards(), Retained: s.retainedLocked(win),
		})
	}
	s.aggMu.Unlock()
	st.Counters = s.cfg.Metrics.Snapshot(true)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}
