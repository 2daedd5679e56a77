package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"txsampler"
	"txsampler/internal/core"
	"txsampler/internal/fleet"
	"txsampler/internal/profile"
)

// fleetWindows is how many aggregation windows the uploads spread over.
const fleetWindows = 8

// fleetSeeds is how many seeds of the subset set-up profiles into
// shards: 4 x 14 programs = 56 distinct payloads.
const fleetSeeds = 4

// queryThink is the reader's pause between queries.
const queryThink = 10 * time.Millisecond

// fleetSlice is how long a slice of the timed phase uploads before it
// drains; the host is probed between slices.
const fleetSlice = time.Second

// spanHeader carries a client span's id to the server-side span, so
// both halves of one request share an operation.
const spanHeader = "X-Bench-Span"

type spanKey struct{}

// spanTransport copies the span id a request's context carries into
// its headers.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(spanKey{}).(int); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	return t.base.RoundTrip(req)
}

// tracedHandler records a span around each request a client span sent.
func tracedHandler(tr *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		s := tr.child("fleet."+strings.TrimPrefix(r.URL.Path, "/"), parent)
		h.ServeHTTP(w, r)
		tr.end(s)
	})
}

// shardSet is the set-up's profiles: framed payloads and their decoded
// form, from which the expected aggregates are computed.
type shardSet struct {
	payloads [][]byte
	dbs      []*profile.Database
}

// makeShards profiles suite-2t's jobs for fleetSeeds seeds from seed.
func makeShards(seed int64, jobs []job) (shardSet, error) {
	var ss shardSet
	for s := seed; s < seed+fleetSeeds; s++ {
		for _, j := range jobs {
			o := j.opts
			o.Seed, o.Profile = s, true
			res, err := txsampler.Run(j.program, o)
			if err != nil {
				return ss, err
			}
			var b bytes.Buffer
			if err := profile.FromReport(res.Report).Write(&b); err != nil {
				return ss, err
			}
			db, err := profile.Read(bytes.NewReader(b.Bytes()))
			if err != nil {
				return ss, err
			}
			ss.payloads = append(ss.payloads, b.Bytes())
			ss.dbs = append(ss.dbs, db)
		}
	}
	return ss, nil
}

// daemon is a fleet server listening on loopback.
type daemon struct {
	dir  string
	srv  *fleet.Server
	http *http.Server
	url  string
	done chan error
}

func startDaemon(dir string, tr *recorder) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := fleet.Open(fleet.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		h = tracedHandler(tr, h)
	}
	d := &daemon{dir: dir, srv: srv, http: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// stop closes the listener and connections, waits for Serve to return,
// then stops the merge pipeline.
func (d *daemon) stop() error {
	d.http.Close()
	<-d.done
	return d.srv.Close()
}

// newClient returns a client that holds at most one connection.
func newClient(tr *recorder) (*http.Client, *http.Transport) {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	var rt http.RoundTripper = t
	if tr != nil {
		rt = spanTransport{t}
	}
	return &http.Client{Transport: rt}, t
}

// get fetches path and returns the body; a non-200 status is an error.
func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// fleetSetup profiles the shards, starts a daemon in a fresh directory
// and merges one shard into every window, so queries find data from
// the first moment of the timed phase.
func fleetSetup(cfg config, tr *recorder, dir string) (shardSet, *daemon, error) {
	ss, err := makeShards(cfg.seed, cfg.keep(machineJobs["suite-2t"]))
	if err != nil {
		return ss, nil, err
	}
	d, err := startDaemon(dir, tr)
	if err != nil {
		return ss, nil, err
	}
	up := fleet.Uploader{BaseURL: d.url}
	for w := 0; w < fleetWindows; w++ {
		shard := fleet.Shard{Key: fmt.Sprintf("warm-%d", w), Window: w, Payload: ss.payloads[w%len(ss.payloads)]}
		if _, err := up.Upload(context.Background(), shard); err != nil {
			d.stop()
			return ss, nil, err
		}
	}
	for d.srv.Lag() > 0 {
		time.Sleep(time.Millisecond)
	}
	return ss, d, nil
}

// runFleet is the fleet-ingest workload: one uploader connection posts
// shards in a closed loop, waiting for each ack, while one reader
// connection refreshes a dashboard (/top, then /profile). The machine
// is not involved; the time goes to the profile codec, the journal
// fsync and the aggregate lock.
func runFleet(cfg config, tr *recorder) (*record, error) {
	var t tally
	v := values{}
	rec := &record{}

	var cal calibrator
	cal.probe()
	var setups []timed
	var ss shardSet
	var d *daemon
	for i := 0; i < cfg.setupRounds; i++ {
		dir := filepath.Join(cfg.workdir, fmt.Sprintf("fleet-%d", i))
		start := time.Now()
		var err error
		ss, d, err = fleetSetup(cfg, tr, dir)
		setups = append(setups, timed{start: start, end: time.Now(), wall: time.Since(start)})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i < cfg.setupRounds-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
		cal.due()
	}

	expected := make([]core.Metrics, fleetWindows)
	counts := make([]int, fleetWindows)
	for w := range expected {
		expected[w].Merge(&ss.dbs[w%len(ss.dbs)].Totals)
		counts[w]++
	}

	upClient, upTransport := newClient(tr)
	rdClient, rdTransport := newClient(tr)
	defer upTransport.CloseIdleConnections()
	defer rdTransport.CloseIdleConnections()
	up := fleet.Uploader{BaseURL: d.url, Client: upClient}

	// The timed phase runs in slices of fleetSlice. A slice uploads, then
	// waits until every shard acked so far is merged, so its time runs
	// from ingest to queryable. Between slices the reader is paused and
	// the daemon is idle, and only then is the host probed.
	var pause sync.Mutex // held by the reader during a query, and while probing
	cal.probe()
	stop := make(chan struct{})
	var queries []query
	var maxLag uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		queries, maxLag = readLoop(stop, &pause, rdClient, d, tr)
	}()

	perm := rand.New(rand.NewSource(cfg.seed)).Perm(len(ss.payloads))
	var tracedAcks, plainAcks []float64
	acked, deferred := 0, 0
	upload := func(i int) {
		idx, w := perm[i%len(perm)], i%fleetWindows
		shard := fleet.Shard{Key: fmt.Sprintf("s%d-%d", cfg.seed, i), Node: "bench", Window: w, Payload: ss.payloads[idx]}
		// In a traced run every other upload is traced, so the two
		// halves measure the tracing overhead.
		ctx, op := context.Background(), -1
		if i%2 == 0 {
			op = tr.root(opName, 1)
		}
		s := tr.child("http.roundtrip", op)
		if s >= 0 {
			ctx = context.WithValue(ctx, spanKey{}, s)
		}
		t0 := time.Now()
		res, err := up.Upload(ctx, shard)
		lat := time.Since(t0)
		tr.end(s)
		tr.end(op)
		if !t.check(wrapKey("fleet-ingest", shard.Key, err)) {
			return
		}
		acked++
		if res.Status == fleet.StatusDeferred {
			deferred++
		}
		if op >= 0 {
			tracedAcks = append(tracedAcks, ms(lat))
		} else {
			plainAcks = append(plainAcks, ms(lat))
		}
		expected[w].Merge(&ss.dbs[idx].Totals)
		counts[w]++
	}

	var slices []timed
	var drain time.Duration
	g0 := readGoStats()
	deadline := time.Now().Add(cfg.seconds)
	more := func(i int) bool {
		return time.Now().Before(deadline) && (cfg.maxShards == 0 || i < cfg.maxShards)
	}
	for i := 0; more(i); {
		start, cpu0 := time.Now(), cpuTime()
		for sliceEnd := start.Add(fleetSlice); time.Now().Before(sliceEnd) && more(i); i++ {
			upload(i)
		}
		lastAck := time.Now()
		for {
			st, err := stats(upClient, d.url)
			if err != nil {
				t.check(err)
				break
			}
			if st.Merged >= uint64(fleetWindows+acked) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		end := time.Now()
		drain += end.Sub(lastAck)
		slices = append(slices, timed{start: start, end: end, wall: end.Sub(start), cpu: cpuTime() - cpu0})
		pause.Lock()
		cal.probe()
		pause.Unlock()
	}
	close(stop)
	wg.Wait()
	setGoMetrics(v, g0, acked)
	want := uint64(fleetWindows + acked)

	var qlat, top, prof []float64
	var profBytes float64
	for _, q := range queries {
		if !t.check(wrapKey("fleet-ingest", "query", q.err)) {
			continue
		}
		qlat = append(qlat, ms(q.top+q.profile))
		top = append(top, ms(q.top))
		prof = append(prof, ms(q.profile))
		profBytes += float64(q.bytes)
	}
	e2e := func(c *calibrator) values {
		setupMs, _ := c.scaled(setups)
		walls, cpus := c.scaled(slices)
		return values{
			"setup_s":       median(setupMs) / 1000,
			"ops_per_s":     ratio(float64(acked)*1000, sum(walls)),
			"cpu_ms_per_op": ratio(sum(cpus), float64(acked)),
		}
	}
	maps.Copy(v, e2e(&cal))
	rec.Uncalibrated = e2e(&calibrator{})
	v["go.maxrss_mb"] = maxRSSMiB()

	// Correctness: per-window shard counts and metric totals, then the
	// query digest before and after a journal replay.
	digest, err := fleetDigest(d.srv.Handler(), counts, expected)
	t.check(err)
	t.check(d.stop())
	journal, err := os.Stat(filepath.Join(d.dir, fleet.JournalName))
	if !t.check(err) {
		journal = nil
	}
	replayStart := time.Now()
	replayed, err := fleet.Open(fleet.Config{Dir: d.dir})
	replay := time.Since(replayStart)
	if t.check(err) {
		again, err := fleetDigest(replayed.Handler(), counts, expected)
		if err == nil && again != digest {
			err = fmt.Errorf("digest after replay %.12s differs from live %.12s", again, digest)
		}
		t.check(err)
		t.check(replayed.Close())
	}
	rec.Digests = map[string]string{fmt.Sprintf("fleet@%d/%d", cfg.seed, want): digest}

	if tr != nil {
		lt := tr.layerTimes()
		n := float64(len(tracedAcks))
		v["fleet.ingest_ms"] = ratio(ms(lt.self["fleet.ingest"]), n)
		v["http.roundtrip_ms"] = ratio(ms(lt.self["http.roundtrip"]), n+2*float64(len(qlat)))
		v["fleet.replay_ms_per_shard"] = ratio(ms(replay), float64(want))
		v["fleet.drain_s"] = drain.Seconds()
		v["fleet.max_merge_lag"] = float64(maxLag)
		v["fleet.deferred_frac"] = ratio(float64(deferred), float64(acked))
		if journal != nil {
			v["fleet.journal_bytes_per_shard"] = ratio(float64(journal.Size()), float64(want))
		}
		raw := append(tracedAcks, plainAcks...)
		v["fleet.ack_p50_ms"] = percentile(raw, 0.5)
		v["fleet.ack_p99_ms"] = percentile(raw, 0.99)
		v["fleet.query_p50_ms"] = percentile(qlat, 0.5)
		v["fleet.top_p50_ms"] = percentile(top, 0.5)
		v["fleet.profile_p50_ms"] = percentile(prof, 0.5)
		v["fleet.query_p99_ms"] = percentile(qlat, 0.99)
		v["fleet.profile_bytes"] = ratio(profBytes, float64(len(prof)))
		v["fleet.validate_ms"] = validateMs(ss.payloads)
		v["bench.trace_overhead_pct"] = 100 * (ratio(sum(tracedAcks)*float64(len(plainAcks)), sum(plainAcks)*n) - 1)
		v["bench.unattributed_pct"] = 100 * ratio(float64(lt.rootSelf), float64(lt.rootTotal))
		v.scaleLayers(cal.scale())
	}
	rec.Result, err = t.result(v, cfg.traced)
	return rec, err
}

// query is one refresh of a dashboard: the top contexts by time, then
// the aggregate profile.
type query struct {
	top, profile time.Duration
	bytes        int // of the profile
	err          error
}

// readLoop queries, queryThink apart, until stop closes. It holds pause
// during each query. A traced run also samples the merge lag between
// queries.
func readLoop(stop <-chan struct{}, pause *sync.Mutex, c *http.Client, d *daemon, tr *recorder) ([]query, uint64) {
	var queries []query
	var maxLag uint64
	for {
		select {
		case <-stop:
			return queries, maxLag
		case <-time.After(queryThink):
		}
		pause.Lock()
		if tr != nil {
			maxLag = max(maxLag, d.srv.Lag())
		}
		op := tr.root(opName, 2)
		var q query
		fetch := func(path string) (time.Duration, []byte) {
			ctx, s := context.Background(), tr.child("http.roundtrip", op)
			if s >= 0 {
				ctx = context.WithValue(ctx, spanKey{}, s)
			}
			start := time.Now()
			body, err := get(ctx, c, d.url+path)
			lat := time.Since(start)
			tr.end(s)
			if q.err == nil {
				q.err = err
			}
			return lat, body
		}
		q.top, _ = fetch("/top?by=time&k=10")
		var body []byte
		q.profile, body = fetch("/profile")
		q.bytes = len(body)
		tr.end(op)
		pause.Unlock()
		queries = append(queries, q)
	}
}

func stats(c *http.Client, url string) (fleet.Stats, error) {
	var st fleet.Stats
	body, err := get(context.Background(), c, url+"/stats")
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	return st, err
}

// validateMs is the mean time of the check ingest makes on a payload
// before journaling it: a full profile.Read.
func validateMs(payloads [][]byte) float64 {
	start := time.Now()
	for _, p := range payloads {
		profile.Read(bytes.NewReader(p))
	}
	return ratio(ms(time.Since(start)), float64(len(payloads)))
}

// fleetDigest checks every window's shard count and metric totals
// against what was uploaded, then hashes the window counts and the
// /top rankings. It queries the handler in process, so it works on a
// replayed server that has no listener.
func fleetDigest(h http.Handler, counts []int, expected []core.Metrics) (string, error) {
	call := func(path string) ([]byte, error) {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, path, nil))
		if rw.Code != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d: %s", path, rw.Code, bytes.TrimSpace(rw.Body.Bytes()))
		}
		return rw.Body.Bytes(), nil
	}
	body, err := call("/stats")
	if err != nil {
		return "", err
	}
	var st fleet.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return "", err
	}
	if len(st.Windows) != len(counts) {
		return "", fmt.Errorf("%d windows, want %d", len(st.Windows), len(counts))
	}
	hash := sha256.New()
	for w, ws := range st.Windows {
		if ws.Window != w || ws.Shards != counts[w] {
			return "", fmt.Errorf("window %d holds %d shards, want %d", ws.Window, ws.Shards, counts[w])
		}
		raw, err := call(fmt.Sprintf("/profile?window=%d", w))
		if err != nil {
			return "", err
		}
		db, err := profile.Read(bytes.NewReader(raw))
		if err != nil {
			return "", err
		}
		if !reflect.DeepEqual(db.Totals, expected[w]) {
			return "", fmt.Errorf("window %d: merged totals differ from the sum of its uploads", w)
		}
		fmt.Fprintf(hash, "window %d shards %d\n", w, ws.Shards)
		for _, by := range []string{"time", "aborts", "sharing"} {
			top, err := call(fmt.Sprintf("/top?window=%d&by=%s&k=10", w, by))
			if err != nil {
				return "", err
			}
			hash.Write(top)
		}
	}
	return hex.EncodeToString(hash.Sum(nil)), nil
}
