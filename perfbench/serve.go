package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"congestapsp/internal/graph"
	"congestapsp/internal/serve"
	"congestapsp/pkg/apsp"
)

const (
	// serveClients is the number of closed-loop keep-alive clients.
	serveClients = 2
	// setupReps is how many times a serve run boots the daemon; setup_s
	// is the median of their CPU times.
	setupReps = 5
)

// daemon is an in-process apspd: the serving stack behind a loopback
// listener, journaling into a data dir of its own.
type daemon struct {
	svc  *serve.Service
	srv  *http.Server
	done chan error
	url  string
	dir  string
	keys []string // pool key of each served graph
	hc   *http.Client
}

// bootDaemon starts a durable daemon on an empty data dir (fsync=interval),
// recovers it, and loads the scenarios by name.
func bootDaemon(scenarios []apsp.Scenario, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	svc := serve.New(serve.Config{})
	policy, err := serve.ParseFsyncPolicy("interval")
	if err != nil {
		return nil, err
	}
	if err := svc.Recover(dir, serve.StoreOptions{Fsync: policy}); err != nil {
		return nil, fmt.Errorf("recovering %s: %w", dir, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	d := &daemon{
		svc:  svc,
		srv:  &http.Server{Handler: svc.Handler()},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
		dir:  dir,
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients + 1}},
	}
	go func() { d.done <- d.srv.Serve(ln) }()
	for _, sc := range scenarios {
		var lr struct {
			Graph string `json:"graph"`
		}
		if code, err := d.post("/v1/graphs", map[string]any{"scenario": sc.Name()}, &lr); err != nil || code != http.StatusOK {
			d.stop()
			return nil, fmt.Errorf("loading %s: status %d: %v", sc.Name(), code, err)
		}
		d.keys = append(d.keys, lr.Graph)
	}
	return d, nil
}

// stop shuts the listener down, waits for the server goroutine, closes the
// journals and removes the data dir.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	d.hc.CloseIdleConnections()
	if cerr := d.svc.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// post sends a JSON request and decodes a 200 response into out.
func (d *daemon) post(path string, body any, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := d.hc.Post(d.url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("%s", bytes.TrimSpace(data))
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// scrape reads the daemon's /metrics exposition into series -> value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.hc.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

type queryWire struct {
	Pairs [][2]int `json:"pairs"`
}

type queryReply struct {
	Version uint64  `json:"version"`
	Cached  bool    `json:"cached"`
	Dist    []int64 `json:"dist"`
}

type updateReply struct {
	Version    uint64 `json:"version"`
	Reused     int    `json:"reused"`
	Recomputed int    `json:"recomputed"`
	FellBack   bool   `json:"fell_back"`
}

type queryObs struct {
	ms    float64
	graph int
	pairs [pairsPerQuery][2]int
	reply queryReply
}

type updateObs struct {
	ms    float64
	graph int
	e     edgeKey
	w     int64
	reply updateReply
}

// traffic is what one closed-loop window observed.
type traffic struct {
	queries       []queryObs
	updates       []updateObs
	errors        []string
	wall          float64
	before, after map[string]float64
}

// query sends one 4-pair query to served graph gi.
func (d *daemon) query(gi int, pairs [pairsPerQuery][2]int) (queryReply, error) {
	var r queryReply
	_, err := d.post("/v1/graphs/"+d.keys[gi]+"/query", queryWire{Pairs: pairs[:]}, &r)
	if err == nil && len(r.Dist) != pairsPerQuery {
		err = fmt.Errorf("query answered %d distances for %d pairs", len(r.Dist), pairsPerQuery)
	}
	return r, err
}

// run drives serveClients closed-loop clients for the given duration, each
// sending its seeded op stream back to back; graphs are the served graphs
// as loaded. With a tracer, every request gets a span of its own under
// parent, carrying a request id unique within the window.
func (d *daemon) run(seed int64, graphs []*apsp.Graph, seconds float64, spans *tracer, parent int) (*traffic, error) {
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	edges := make([][][]edgeKey, serveClients) // client -> graph -> edges
	for _, g := range graphs {
		for c, es := range updateEdges(g, serveClients) {
			edges[c] = append(edges[c], es)
		}
	}
	per := make([]traffic, serveClients)
	var reqs atomic.Int64
	begin := func(name string) int {
		if spans == nil {
			return -1
		}
		return spans.begin(name, parent, reqs.Add(1))
	}
	end := func(sp int) {
		if spans != nil {
			spans.end(sp)
		}
	}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &per[c]
			st := newOpStream(seed, c, graphs[0].N(), edges[c])
			for time.Now().Before(deadline) {
				o := st.next()
				t := time.Now()
				if o.update {
					var r updateReply
					body := map[string]any{"updates": []map[string]any{{"op": "set", "u": o.u, "v": o.v, "w": o.w}}}
					sp := begin("update")
					_, err := d.post("/v1/graphs/"+d.keys[o.graph]+"/update", body, &r)
					ms := msSince(t)
					end(sp)
					if err != nil {
						tr.errors = append(tr.errors, fmt.Sprintf("update (%d,%d) of graph %d: %v", o.u, o.v, o.graph, err))
						continue
					}
					tr.updates = append(tr.updates, updateObs{ms: ms, graph: o.graph, e: edgeKey{o.u, o.v}, w: o.w, reply: r})
					continue
				}
				sp := begin("query")
				r, err := d.query(o.graph, o.pairs)
				ms := msSince(t)
				end(sp)
				if err != nil {
					tr.errors = append(tr.errors, fmt.Sprintf("query of graph %d: %v", o.graph, err))
					continue
				}
				tr.queries = append(tr.queries, queryObs{ms: ms, graph: o.graph, pairs: o.pairs, reply: r})
			}
		}()
	}
	wg.Wait()
	out := &traffic{wall: time.Since(start).Seconds(), before: before}
	for _, tr := range per {
		out.queries = append(out.queries, tr.queries...)
		out.updates = append(out.updates, tr.updates...)
		out.errors = append(out.errors, tr.errors...)
	}
	if out.after, err = d.scrape(); err != nil {
		return nil, err
	}
	return out, nil
}

// check counts the window's operations on rec and verifies them: every
// query answer against the oracle at the graph version the response
// names, and the daemon's request counters against what the clients saw.
// The served graphs are workload w's at seed.
func (t *traffic) check(w workload, seed int64, rec *record) {
	rec.Attempted += len(t.queries) + len(t.updates) + len(t.errors)
	for _, e := range t.errors {
		rec.fail("%s", e)
	}
	for gi := range w.graphs {
		var ups []updateObs
		var qs []queryObs
		for _, u := range t.updates {
			if u.graph == gi {
				ups = append(ups, u)
			}
		}
		for _, q := range t.queries {
			if q.graph == gi {
				qs = append(qs, q)
			}
		}
		mirror, err := w.scenario(seed, gi).Build()
		if err != nil {
			rec.fail("graph %d: rebuilding it for the oracle: %v", gi, err)
			continue
		}
		checkAnswers(gi, mirror, ups, qs, rec)
	}
	// Counter drift: the daemon's batch counters must account for exactly
	// the requests the clients completed, and its 200 count for those plus
	// the first /metrics scrape.
	drift := func(series string, want int) {
		if got := int(t.after[series] - t.before[series]); got != want {
			rec.fail("counter drift: %s moved by %d, clients completed %d", series, got, want)
		}
	}
	drift(`apspd_batched_requests_total{kind="query"}`, len(t.queries))
	drift(`apspd_batched_requests_total{kind="update"}`, len(t.updates))
	drift(`apspd_http_requests_total{code="200"}`, len(t.queries)+len(t.updates)+1)
}

// checkAnswers verifies one served graph's query answers; mirror starts as
// the graph as loaded and is updated in place. The graph at version v is
// the loaded graph plus every update whose response names a version <= v
// (coalesced updates share a version and touch disjoint edges, so their
// order does not matter).
func checkAnswers(gi int, mirror *apsp.Graph, ups []updateObs, qs []queryObs, rec *record) {
	sort.Slice(ups, func(i, j int) bool { return ups[i].reply.Version < ups[j].reply.Version })
	sort.SliceStable(qs, func(i, j int) bool { return qs[i].reply.Version < qs[j].reply.Version })
	applied := 0
	var host *graph.Graph
	rows := map[int][]int64{}
	version := ^uint64(0)
	for _, q := range qs {
		if q.reply.Version != version {
			version = q.reply.Version
			for applied < len(ups) && ups[applied].reply.Version <= version {
				u := ups[applied]
				if err := mirror.ApplyUpdate(apsp.EdgeUpdate{Op: apsp.SetWeight, U: u.e.u, V: u.e.v, W: u.w}); err != nil {
					rec.fail("graph %d: mirroring update (%d,%d): %v", gi, u.e.u, u.e.v, err)
				}
				applied++
			}
			var err error
			if host, err = hostGraph(mirror); err != nil {
				rec.fail("graph %d at version %d: %v", gi, version, err)
				return
			}
			rows = map[int][]int64{}
		}
		for i, p := range q.pairs {
			row, ok := rows[p[0]]
			if !ok {
				row = graph.Dijkstra(host, p[0])
				rows[p[0]] = row
			}
			want := row[p[1]]
			if want >= apsp.Inf {
				want = -1
			}
			if q.reply.Dist[i] != want {
				rec.fail("graph %d at version %d: dist(%d,%d) = %d, oracle says %d", gi, version, p[0], p[1], q.reply.Dist[i], want)
				break
			}
		}
	}
}

// delta is how far a /metrics series moved over the window.
func (t *traffic) delta(series string) float64 { return t.after[series] - t.before[series] }

// sumDelta adds up the moves of every series of a family.
func (t *traffic) sumDelta(family string) float64 {
	var s float64
	for k, v := range t.after {
		if k == family || strings.HasPrefix(k, family+"{") {
			s += v - t.before[k]
		}
	}
	return s
}

// setupServe boots the daemon reps times (each on a fresh empty data dir,
// with one discarded warm-up query per graph) and keeps the last one; it
// returns the served graphs as loaded and each set-up's CPU time.
func setupServe(w workload, seed int64, reps int) (*daemon, []*apsp.Graph, []float64, error) {
	var scs []apsp.Scenario
	var graphs []*apsp.Graph
	for i := range w.graphs {
		sc := w.scenario(seed, i)
		g, err := sc.Build()
		if err != nil {
			return nil, nil, nil, err
		}
		scs, graphs = append(scs, sc), append(graphs, g)
	}
	var times []float64
	var d *daemon
	for i := range reps {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, nil, nil, err
			}
			d = nil
		}
		runtime.GC()
		debug.FreeOSMemory()
		dir := filepath.Join(scratchDir, fmt.Sprintf("data-%d-%d", os.Getpid(), i))
		c0 := cpuSeconds()
		var err error
		if d, err = bootDaemon(scs, dir); err != nil {
			return nil, nil, nil, err
		}
		for gi := range d.keys {
			if _, err := d.query(gi, [pairsPerQuery][2]int{}); err != nil {
				d.stop()
				return nil, nil, nil, fmt.Errorf("warm-up query: %w", err)
			}
		}
		times = append(times, cpuSeconds()-c0)
	}
	return d, graphs, times, nil
}

// runServe is the serve-mixed workload's untraced run.
func runServe(cfg config, w workload, rec *record) error {
	d, graphs, setups, err := setupServe(w, cfg.seed, setupReps)
	if err != nil {
		return err
	}
	rec.set("setup_s", median(setups), len(setups))
	c0 := cpuSeconds()
	t, err := d.run(cfg.seed, graphs, cfg.seconds, nil, -1)
	cpu := cpuSeconds() - c0
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	t.check(w, cfg.seed, rec)
	var fresh []float64
	for _, q := range t.queries {
		if !q.reply.Cached {
			fresh = append(fresh, q.ms/1000)
		}
	}
	ops := len(t.queries) + len(t.updates)
	fmt.Fprintf(os.Stderr, "serve window: %d queries (%d fresh, median %.1f ms), %d updates, %.1f wall s, %.1f CPU s\n",
		len(t.queries), len(fresh), 1000*median(fresh), len(t.updates), t.wall, cpu)
	// The clients run in this process too, so the CPU time includes
	// theirs; next to the re-runs and updates they cause it is small.
	rec.set("cpu_ms_per_op", 1000*cpu/float64(ops), ops)
	return nil
}

// serveLayers runs one traced window against a fresh daemon, with an
// observer recording stage spans under parent on each served graph's
// Runner, and records the serve.* and core.update.* metrics.
func serveLayers(cfg config, w workload, rec *record, tr *tracer, parent int) error {
	d, graphs, _, err := setupServe(w, cfg.seed, 1)
	if err != nil {
		return err
	}
	obs := make([]*observer, len(d.keys))
	for gi, key := range d.keys {
		obs[gi] = newObserver(tr)
		obs[gi].arm(parent, -1)
		if !d.svc.Pool().SetFaultInjector(key, obs[gi]) {
			d.stop()
			return fmt.Errorf("graph %s vanished from the pool", key)
		}
	}
	t, err := d.run(cfg.seed, graphs, cfg.seconds, tr, parent)
	if serr := d.stop(); err == nil {
		err = serr
	}
	for _, o := range obs {
		o.finish()
	}
	if err != nil {
		return err
	}
	t.check(w, cfg.seed, rec)
	var all, fresh, ups []float64
	for _, q := range t.queries {
		all = append(all, q.ms)
		if !q.reply.Cached {
			fresh = append(fresh, q.ms)
		}
	}
	fell, recomputedShare, incremental := 0, 0.0, 0
	for _, u := range t.updates {
		ups = append(ups, u.ms)
		if u.reply.FellBack {
			fell++
		} else if tot := u.reply.Reused + u.reply.Recomputed; tot > 0 {
			recomputedShare += float64(u.reply.Recomputed) / float64(tot)
			incremental++
		}
	}
	rec.set("serve.req_per_s", float64(len(t.queries)+len(t.updates))/t.wall, len(t.queries)+len(t.updates))
	if err := setPercentile(rec, "serve.query_ms_p50", all, 0.50); err != nil {
		return err
	}
	if err := setPercentile(rec, "serve.query_ms_p99", all, 0.99); err != nil {
		return err
	}
	if err := setPercentile(rec, "serve.fresh_query_ms_p50", fresh, 0.50); err != nil {
		return err
	}
	if err := setPercentile(rec, "serve.update_ms_p50", ups, 0.50); err != nil {
		return err
	}
	if err := setPercentile(rec, "serve.update_ms_p90", ups, 0.90); err != nil {
		return err
	}
	rec.set("core.update.fellback_share", ratio(float64(fell), float64(len(ups))), len(ups))
	rec.set("core.update.recomputed_share", ratio(recomputedShare, float64(incremental)), incremental)
	queries := t.delta(`apspd_batched_requests_total{kind="query"}`)
	rec.set("serve.result_cache_hit_share", ratio(t.delta("apspd_result_cache_hits_total"), queries), int(queries))
	rec.set("serve.batched_per_batch", ratio(t.sumDelta("apspd_batched_requests_total"), t.sumDelta("apspd_batches_total")), int(t.sumDelta("apspd_batches_total")))
	rec.set("serve.queue_depth_max", t.after["apspd_queue_depth_max"], 1)
	rec.set("serve.shed", t.delta("apspd_shed_total"), 1)
	rec.set("serve.journal_appends", t.sumDelta("apspd_journal_appends_total"), 1)
	rec.set("serve.journal_bytes_per_update", ratio(t.delta("apspd_journal_bytes_total"), float64(len(ups))), len(ups))
	rec.set("serve.journal_fsyncs", t.delta("apspd_journal_fsyncs_total"), 1)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
