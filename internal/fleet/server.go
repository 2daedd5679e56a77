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
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"txsampler/internal/analyzer"
	"txsampler/internal/core"
	"txsampler/internal/profile"
	"txsampler/internal/record"
	"txsampler/internal/telemetry"
)

// Config tunes the daemon. Dir is required; every other field's zero
// value is a usable default.
type Config struct {
	// Dir is the state directory holding the shard journal. Required.
	Dir string
	// MaxShardBytes caps an ingest body (default 32 MiB).
	MaxShardBytes int64
	// Retain keeps only the newest N windows; older windows are
	// compacted — deleted from the in-memory aggregate map so their
	// heap is reclaimed — and answer 410 Gone. 0 keeps everything.
	Retain int
	// Metrics receives the daemon's counters, gauges and ingest stage
	// histograms (nil = none).
	Metrics *telemetry.Registry
	// Log receives one line per notable event (nil silences).
	Log io.Writer
}

// Server is the fleet ingest daemon: HTTP handlers over a journal and
// one aggregate per window. Create with Open, serve Handler, stop with
// Close.
type Server struct {
	cfg Config

	// mu serializes ingest. The idempotency check, the fsynced journal
	// append and the fold run in one critical section, so the journal
	// order is the fold order and an acknowledged shard is queryable.
	mu       sync.Mutex
	log      *record.Log
	accepted map[string]struct{} // idempotency keys journaled (replay included)
	replayed uint64              // shards rebuilt from the journal at startup

	// aggMu guards the window aggregates and the retention watermark.
	// Ingest takes it inside mu; queries take it alone.
	aggMu   sync.Mutex
	windows map[int]*profile.Aggregate
	// compactedBelow is the retention horizon: every window ordinal
	// below it has been compacted (aggregate deleted, memory
	// reclaimed) and is permanently 410 Gone. Monotone — it only
	// rises as newer windows arrive — and a pure function of the
	// append sequence, so a journal replay reaches the same horizon.
	compactedBelow int

	ctrIngested  *telemetry.Counter
	ctrDup       *telemetry.Counter
	ctrRejected  *telemetry.Counter
	ctrReplayed  *telemetry.Counter
	ctrMerged    *telemetry.Counter
	ctrCompacted *telemetry.Counter
	gaugeWindows *telemetry.Gauge
	// Wall time, in nanoseconds, of each accepted shard's ingest
	// stages: the validating decode, the journal write plus fsync,
	// and the fold.
	histDecode, histAppend, histFold *telemetry.Histogram
}

// Open builds the server: it replays the journal in cfg.Dir —
// re-verifying every payload's checksums and deduplicating by
// idempotency key — and rebuilds the window aggregates. After a kill
// -9 the rebuilt aggregates are byte-identical to what an
// uninterrupted daemon would hold for the same accepted shard set.
// Damage other than a torn final append fails Open with the journal
// left as it was.
func Open(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, errors.New("fleet: Config.Dir is required")
	}
	if cfg.MaxShardBytes <= 0 {
		cfg.MaxShardBytes = 32 << 20
	}
	reg := cfg.Metrics
	s := &Server{
		cfg:          cfg,
		accepted:     make(map[string]struct{}),
		windows:      make(map[int]*profile.Aggregate),
		ctrIngested:  reg.Counter("fleet.ingested"),
		ctrDup:       reg.Counter("fleet.duplicates"),
		ctrRejected:  reg.Counter("fleet.rejected"),
		ctrReplayed:  reg.Counter("fleet.replayed"),
		ctrMerged:    reg.Counter("fleet.merged"),
		ctrCompacted: reg.Counter("fleet.windows_compacted"),
		gaugeWindows: reg.Gauge("fleet.windows", false),
		histDecode:   reg.Histogram("fleet.decode_ns"),
		histAppend:   reg.Histogram("fleet.append_ns"),
		histFold:     reg.Histogram("fleet.fold_ns"),
	}

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
		s.fold(rec.Window, db)
		s.replayed++
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.log = log
	s.ctrReplayed.Add(s.replayed)
	s.ctrMerged.Add(s.replayed)
	if s.replayed > 0 {
		s.logf("fleet: replayed %d shards into %d windows", s.replayed, len(s.windows))
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, format+"\n", args...)
	}
}

// fold adds a decoded shard to its window's aggregate, under the same
// retention horizon at ingest and at replay, so the rebuilt retained
// aggregates are byte-identical and compacted ones never
// re-materialize. A shard below the horizon stays journaled but folds
// to nothing: its window can never be served again.
func (s *Server) fold(window int, db *profile.Database) {
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	if s.retainedLocked(window) {
		s.window(window).Add(db)
		s.compactLocked()
	}
	s.gaugeWindows.Set(uint64(len(s.windows)))
}

// window returns the aggregate for a window, creating it. Callers
// hold aggMu.
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

// Lag returns the journaled-but-unfolded shard count, which is 0:
// ingest folds every shard before it answers. It is kept because the
// benchmark in bench/ compiles against it.
func (s *Server) Lag() uint64 { return 0 }

// compactLocked enforces the retention policy after a fold: when more
// than Retain windows are live, every window below the Retain largest
// ordinals is deleted from the aggregate map — the CCT, per-thread
// table, and program set it held become garbage — and the horizon
// watermark rises to the smallest surviving ordinal. Caller holds
// aggMu.
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

// Close closes the journal. Later ingests answer 500 and fold
// nothing; queries keep answering from memory. Nothing acknowledged
// is lost: the next Open replays the journal.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}

// Handler returns the daemon's HTTP API:
//
//	POST /ingest    framed profile bytes (X-Fleet-Key/-Node/-Window)
//	GET  /profile   ?window=N -> framed aggregate database
//	GET  /top       ?window=N&by=aborts|sharing|time&k=K -> text ranking
//	GET  /stats     JSON journal, window and counter statistics
//	GET  /healthz   process liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/profile", s.handleProfile)
	mux.HandleFunc("/top", s.handleTop)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Shard ingest statuses reported in the X-Fleet-Status header.
const (
	StatusMerged    = "accepted"  // journaled and folded into its window
	StatusDuplicate = "duplicate" // idempotency key already accepted
	// StatusDeferred is never sent: ingest folds every shard it
	// acknowledges. It is kept because the benchmark in bench/
	// compiles against it.
	StatusDeferred = "deferred"
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
	// reset or corrupted in flight never reaches the journal. The
	// decoded database is the one the fold adds.
	start := time.Now()
	db, err := profile.Decode(data)
	decode := time.Since(start)
	if err != nil {
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
	// Journal before acknowledging: the fsynced append is the commit
	// point. A kill -9 after this line loses nothing; a kill before
	// it loses only an unacknowledged shard the client will retry.
	start = time.Now()
	if err := s.log.Append(encodeShard(rec)); err != nil {
		s.mu.Unlock()
		s.ctrRejected.Add(1)
		http.Error(w, fmt.Sprintf("journal append: %v", err), http.StatusInternalServerError)
		return
	}
	appended := time.Now()
	s.accepted[key] = struct{}{}
	s.fold(window, db)
	folded := time.Now()
	s.mu.Unlock()

	s.ctrIngested.Add(1)
	s.ctrMerged.Add(1)
	s.histDecode.Observe(uint64(decode))
	s.histAppend.Observe(uint64(appended.Sub(start)))
	s.histFold.Observe(uint64(folded.Sub(appended)))
	w.Header().Set(HeaderStatus, StatusMerged)
	fmt.Fprintln(w, StatusMerged)
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
	Appended uint64 `json:"shards_journaled"`
	// Merged equals Appended: ingest folds every shard it journals
	// before answering. It is kept because the benchmark in bench/
	// compiles against it.
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
	journaled := uint64(len(s.accepted))
	s.mu.Unlock()
	st := Stats{Appended: journaled, Merged: journaled, Replayed: s.replayed, Retain: s.cfg.Retain}
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
