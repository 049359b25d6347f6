package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	td "truthdiscovery"
	"truthdiscovery/internal/dist"
	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/serve"
	"truthdiscovery/internal/value"
)

const (
	servingMethod = "AccuPr"
	// Each pass is servingWrites rounds of one ?wait=1 batch of batchSize
	// upserts beside readsPerWrite point reads.
	servingWrites = 8
	batchSize     = 64
	// routedWorkers in-process workers own routedShards range shards, as
	// truthserved -workers 2 lays them out.
	routedWorkers = 2
	routedShards  = 4
	// probeReads point reads per pass go through the handler without a
	// socket in the traced run.
	probeReads = 200
	// readRetryFor bounds how long a read answered 503 is sent again.
	readRetryFor = 5 * time.Second
)

// serving is the live-serving workload on the paper-scale Stock
// snapshot: one client sends point reads while another sends ?wait=1
// claim batches, against a flat truthserved-shaped server (serve-live)
// or the router + coordinator over two loopback workers (routed).
type serving struct {
	tr     *tracer
	routed bool
	ds     *model.Dataset
	base   *model.Snapshot

	srv     *serve.Server // the server whose view answers (flat) or the router's meta server
	router  *serve.Router
	coord   *dist.Coordinator
	ing     *serve.Ingester
	handler http.Handler
	https   []*http.Server
	serving sync.WaitGroup
	rd, wr  *client // the read and the write client

	objects []string       // object keys, for reads
	targets []jitterTarget // numeric items a write may jitter
	readRNG *rand.Rand
	wrRNG   *rand.Rand
	acked   [][]serve.ClaimOp // every acknowledged batch, in ack order
	floor   atomic.Uint64     // highest acknowledged version
	lastAck uint64

	// retries counts reads answered 503 and sent again.
	retries atomic.Int64
	// Traced run: the write in flight and the flush serving it, for
	// parenting the spans recorded on the flusher's goroutine.
	cur       atomic.Pointer[openSpan]
	flushSpan atomic.Pointer[openSpan]
}

// jitterTarget is one numeric item, its served value at set-up and the
// sources claiming it.
type jitterTarget struct {
	object, attr string
	served       float64
	sources      []string
}

func setupServing(e *env, routed bool) (instance, error) {
	d := stockDomain()
	s := &serving{
		tr: e.tr, routed: routed, ds: d.ds, base: d.snap,
		readRNG: rand.New(rand.NewSource(e.seed)),
		wrRNG:   rand.New(rand.NewSource(e.seed + 1)),
	}
	var err error
	if routed {
		err = s.startRouted()
	} else {
		err = s.startFlat()
	}
	if err != nil {
		s.close()
		return nil, err
	}
	if err := s.loadTargets(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// startFlat wires the single-process server: the incremental engine
// behind a Refresher, live ingest on the default window, no store.
func (s *serving) startFlat() error {
	s.srv = serve.NewServer()
	var eng serve.Engine
	if s.tr != nil {
		eng = newStageEngine(s, servingMethod)
	} else {
		var err error
		eng, err = serve.NewEngine(s.ds, s.base, nil, servingMethod, serve.EngineOptions{
			Planner: &fusion.Planner{Mode: fusion.PlannerAuto},
		})
		if err != nil {
			return err
		}
	}
	ref := serve.NewRefresher(s.ds, eng, s.srv, nil, "perfbench/serve-live", s.base.Day, s.base.Label, fusion.Options{})
	if _, err := ref.Publish(); err != nil {
		return err
	}
	s.startIngest(ref)
	s.handler = s.srv.Handler()
	return s.listen(s.handler)
}

// startRouted wires the distributed layout in one process: two workers
// on loopback listeners, the coordinator driving them, and the router
// in front.
func (s *serving) startRouted() error {
	m, _ := fusion.ByName(servingMethod)
	spec := model.RangeShards(routedShards, len(s.ds.Items))
	bounds := make([]int, routedWorkers+1)
	for i := range bounds {
		bounds[i] = i * routedShards / routedWorkers
	}
	addrs := make([]string, routedWorkers)
	peers := make([]*dist.PeerClient, routedWorkers)
	for i := 0; i < routedWorkers; i++ {
		wk, err := dist.NewWorker(dist.WorkerConfig{
			DS: s.ds, Snap: s.base, Spec: spec,
			Lo: bounds[i], Hi: bounds[i+1], Index: i,
			Method: m, Fingerprint: "perfbench/routed",
		})
		if err != nil {
			return err
		}
		addr, err := s.serveOn(wk.Handler())
		if err != nil {
			return err
		}
		addrs[i] = addr
		peers[i] = dist.NewPeerClient(addr)
	}
	rt, err := serve.NewRouter(s.ds, spec, bounds, addrs)
	if err != nil {
		return err
	}
	s.router, s.srv = rt, rt.Server()
	s.coord = dist.NewCoordinator(dist.CoordinatorConfig{
		DS: s.ds, Spec: spec, Method: m,
		Fingerprint: "perfbench/routed",
		Base:        s.base,
		Srv:         rt.Server(),
		OnPublish:   rt.SetWorkerVersion,
	}, peers)
	if err := s.coord.Init(); err != nil {
		return err
	}
	if _, err := s.coord.RunAndPublish(); err != nil {
		return err
	}
	s.startIngest(s.coord)
	s.handler = rt.Handler()
	return s.listen(s.handler)
}

// startIngest arms live ingest on the default batching window. The
// traced run puts a span recorder between the ingester and its applier.
func (s *serving) startIngest(app serve.Applier) {
	if s.tr != nil {
		app = &tracedApplier{s: s, inner: app}
	}
	s.ing = serve.NewIngester(s.ds, app, s.base, serve.IngestConfig{})
	s.ing.Start()
	s.srv.SetIngester(s.ing)
}

// serveOn serves h on a fresh loopback listener and returns its URL.
func (s *serving) serveOn(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	s.https = append(s.https, hs)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// listen serves the front door and points the clients at it: one
// connection for the reader and one for the writer, or one shared
// connection where there is a single processor.
func (s *serving) listen(h http.Handler) error {
	url, err := s.serveOn(h)
	if err != nil {
		return err
	}
	s.rd = newClient(url)
	s.wr = s.rd
	if runtime.NumCPU() > 1 {
		s.wr = newClient(url)
	}
	return nil
}

// answersBody is the /v1/answers payload.
type answersBody struct {
	Version uint64       `json:"version"`
	Count   int          `json:"count"`
	Answers []wireAnswer `json:"answers"`
}

// loadTargets reads the served answers once and picks the read objects
// and the numeric items writes may jitter.
func (s *serving) loadTargets() error {
	var body answersBody
	if err := s.rd.get("/v1/answers", &body); err != nil {
		return fmt.Errorf("reading the initial answers: %w", err)
	}
	s.floor.Store(body.Version)
	s.lastAck = body.Version
	objs := objectIDs(s.ds)
	seen := map[string]bool{}
	for _, a := range body.Answers {
		if !seen[a.Object] {
			seen[a.Object] = true
			s.objects = append(s.objects, a.Object)
		}
		// A write moves a value by up to ±1%, which needs a nonzero one.
		if a.Kind != value.Number.String() || a.Num == 0 {
			continue
		}
		attr, _ := s.ds.AttrByName(a.Attribute)
		item, ok := s.ds.LookupItem(objs[a.Object], attr.ID)
		if !ok {
			return fmt.Errorf("served item %s/%s is not in the dataset", a.Object, a.Attribute)
		}
		var srcs []string
		for _, c := range s.base.ItemClaims(item) {
			srcs = append(srcs, s.ds.Sources[c.Source].Name)
		}
		s.targets = append(s.targets, jitterTarget{object: a.Object, attr: a.Attribute, served: a.Num, sources: srcs})
	}
	if len(s.objects) == 0 || len(s.targets) < batchSize {
		return fmt.Errorf("served %d objects and %d numeric items; too few to drive the workload", len(s.objects), len(s.targets))
	}
	return nil
}

// objectIDs indexes the dataset's objects by key.
func objectIDs(ds *model.Dataset) map[string]model.ObjectID {
	out := make(map[string]model.ObjectID, len(ds.Objects))
	for _, o := range ds.Objects {
		out[o.Key] = o.ID
	}
	return out
}

// nextBatch draws batchSize distinct (item, source) upserts, each moving
// a served nonzero numeric value by up to ±1%.
func (s *serving) nextBatch() []serve.ClaimOp {
	ops := make([]serve.ClaimOp, 0, batchSize)
	used := map[[2]string]bool{}
	for len(ops) < batchSize {
		t := &s.targets[s.wrRNG.Intn(len(s.targets))]
		src := t.sources[s.wrRNG.Intn(len(t.sources))]
		k := [2]string{t.object + "\x00" + t.attr, src}
		if used[k] {
			continue
		}
		used[k] = true
		x := t.served * (1 + 0.01*(2*s.wrRNG.Float64()-1))
		ops = append(ops, serve.ClaimOp{
			Source: src, Object: t.object, Attribute: t.attr,
			Value: strconv.FormatFloat(x, 'f', -1, 64),
		})
	}
	return ops
}

func (s *serving) warm() error {
	for i := 0; i < 100; i++ {
		if _, err := s.read(); err != nil {
			return err
		}
	}
	return s.write(s.nextBatch())
}

// pass runs servingWrites rounds. In each round the write client sends
// one ?wait=1 batch while the read client sends point reads until the
// batch is acknowledged, so every write, its publish included, shares
// the processors with one busy reader, whatever the speed of either.
func (s *serving) pass(rec *recorder) error {
	var before map[string]any
	if s.tr != nil && s.router != nil {
		before = s.router.Stats()
	}
	flushes := s.flushes()
	for i := 0; i < servingWrites; i++ {
		var acked atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !acked.Load() {
				floor := s.floor.Load()
				r0 := time.Now()
				v, err := s.read()
				rec.add(kindOp, time.Since(r0), err)
				if err == nil && v < floor {
					rec.staleRead()
				}
			}
		}()
		ops := s.nextBatch()
		w0 := time.Now()
		err := s.write(ops)
		rec.add(kindWrite, time.Since(w0), err)
		acked.Store(true)
		wg.Wait()
		if err != nil {
			return err
		}
	}
	retried := s.retries.Swap(0)
	rec.addRetries(retried)
	if s.tr != nil {
		s.tr.count("serve.flushes", float64(s.flushes()-flushes))
		s.tr.count("serve.read_503", float64(retried))
		if before != nil {
			after := s.router.Stats()
			s.tr.count("serve.skew_retries", float64(after["skew_retries"].(uint64)-before["skew_retries"].(uint64)))
			s.tr.count("serve.fan_failures", float64(after["fan_failures"].(uint64)-before["fan_failures"].(uint64)))
		}
		s.probeReads()
	}
	return nil
}

func (s *serving) flushes() uint64 {
	n, _ := s.ing.Stats()["flushes"].(uint64)
	return n
}

// objectBody is the point-read payload, decoded for its version.
type objectBody struct {
	Version uint64 `json:"version"`
	Count   int    `json:"count"`
}

// read sends one point read for a uniformly drawn object and returns the
// version it saw. A read answered 503 is counted and sent again after a
// millisecond, for up to readRetryFor.
func (s *serving) read() (uint64, error) {
	obj := s.objects[s.readRNG.Intn(len(s.objects))]
	var root *openSpan
	if s.tr != nil {
		root = s.tr.begin(s.tr.newReq(), 0, "client.read", "")
		defer root.end()
	}
	start := time.Now()
	for {
		var body objectBody
		err := s.rd.get("/v1/answers/"+obj, &body)
		var he *httpError
		if errors.As(err, &he) && he.status == http.StatusServiceUnavailable && time.Since(start) < readRetryFor {
			s.retries.Add(1)
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			return 0, fmt.Errorf("reading object %s: %w", obj, err)
		}
		if body.Count == 0 {
			return 0, fmt.Errorf("empty answer for object %s", obj)
		}
		return body.Version, nil
	}
}

// write posts one batch with ?wait=1 and records its acknowledgement.
// The traced run enqueues through Ingester.EnqueueWait directly, so the
// enqueue and the flush it waits for are timed apart.
func (s *serving) write(ops []serve.ClaimOp) error {
	var version uint64
	if s.tr != nil {
		v, err := s.tracedWrite(ops)
		if err != nil {
			return err
		}
		version = v
	} else {
		var ack struct {
			Version uint64 `json:"version"`
		}
		if err := s.wr.post("/v1/claims?wait=1", map[string]any{"claims": ops}, &ack); err != nil {
			return err
		}
		version = ack.Version
	}
	if version <= s.lastAck {
		return fmt.Errorf("write acknowledged at version %d after version %d", version, s.lastAck)
	}
	s.lastAck = version
	s.acked = append(s.acked, ops)
	s.floor.Store(version)
	return nil
}

func (s *serving) tracedWrite(ops []serve.ClaimOp) (uint64, error) {
	tr := s.tr
	req := tr.newReq()
	root := tr.begin(req, 0, "serve.ingest", "")
	s.cur.Store(root)
	e := tr.begin(req, root.id(), "serve.enqueue", "")
	_, ch, err := s.ing.EnqueueWait(ops)
	e.end()
	if err != nil {
		return 0, err
	}
	fr := <-ch
	root.end()
	if fr.Err != nil {
		return 0, fr.Err
	}
	if fr.View == nil {
		return 0, fmt.Errorf("a batch of %d upserts changed nothing", len(ops))
	}
	return fr.View.Version, nil
}

// probeReads times point reads through the front handler with no socket.
func (s *serving) probeReads() {
	name := "serve.read_handler"
	if s.router != nil {
		name = "serve.router_read"
	}
	for i := 0; i < probeReads; i++ {
		obj := s.objects[s.readRNG.Intn(len(s.objects))]
		r := httptest.NewRequest(http.MethodGet, "/v1/answers/"+obj, nil)
		w := httptest.NewRecorder()
		req := s.tr.newReq()
		sp := s.tr.begin(req, 0, name, "")
		s.handler.ServeHTTP(w, r)
		sp.end()
	}
}

// check reads the whole served answer table and compares it, bit for
// bit, with a flat Fuse of the base claims plus every acknowledged
// upsert, the last write to a (source, item) winning.
func (s *serving) check() error {
	var body answersBody
	if err := s.rd.get("/v1/answers", &body); err != nil {
		return err
	}
	if body.Version != s.lastAck {
		return fmt.Errorf("serving version %d, last acknowledged %d", body.Version, s.lastAck)
	}
	snap, err := s.expectedSnapshot()
	if err != nil {
		return err
	}
	want, err := td.Fuse(s.ds, snap, servingMethod, td.FuseOptions{})
	if err != nil {
		return err
	}
	if err := sameWire(body.Answers, want); err != nil {
		return fmt.Errorf("version %d after %d writes: %w", body.Version, len(s.acked), err)
	}
	logf("%s check: version %d after %d acknowledged writes bit-identical to flat Fuse", s.name(), body.Version, len(s.acked))
	return nil
}

// expectedSnapshot assembles the claims the server should reflect.
func (s *serving) expectedSnapshot() (*model.Snapshot, error) {
	claims := append([]model.Claim(nil), s.base.Claims...)
	type key struct {
		item model.ItemID
		src  model.SourceID
	}
	at := make(map[key]int, len(claims))
	for i, c := range claims {
		at[key{c.Item, c.Source}] = i
	}
	objs := objectIDs(s.ds)
	for _, batch := range s.acked {
		for _, op := range batch {
			src, ok1 := s.ds.SourceByName(op.Source)
			attr, ok2 := s.ds.AttrByName(op.Attribute)
			item, ok3 := s.ds.LookupItem(objs[op.Object], attr.ID)
			if !ok1 || !ok2 || !ok3 {
				return nil, fmt.Errorf("acknowledged op %+v names no item", op)
			}
			v, err := value.Parse(attr.Kind, op.Value)
			if err != nil {
				return nil, err
			}
			c := model.Claim{Source: src.ID, Item: item, Val: v, Cause: model.CauseNone, CopiedFrom: model.NoSource}
			if i, ok := at[key{item, src.ID}]; ok {
				claims[i] = c
			} else {
				at[key{item, src.ID}] = len(claims)
				claims = append(claims, c)
			}
		}
	}
	return model.NewSnapshot(s.base.Day, "expected", s.base.NumItems(), claims), nil
}

func (s *serving) name() string {
	if s.routed {
		return "routed"
	}
	return "serve-live"
}

func (s *serving) close() {
	if s.ing != nil {
		_ = s.ing.Close()
	}
	for _, hs := range s.https {
		_ = hs.Close()
	}
	s.serving.Wait()
	for _, c := range []*client{s.rd, s.wr} {
		if c != nil {
			c.close()
		}
	}
}

// tracedApplier times each ingest flush's engine advance (Refresher.Apply
// or Coordinator.Apply), parented to the write that waits for it.
type tracedApplier struct {
	s     *serving
	inner serve.Applier
}

func (a *tracedApplier) Apply(dl *model.Delta) (*serve.View, fusion.IncrementalStats, error) {
	tr := a.s.tr
	w := a.s.cur.Load()
	var req, parent uint64
	if w != nil {
		req, parent = w.s.Req, w.id()
	}
	tr.sample("model.delta_ops", float64(dl.Size()))
	if a.s.coord == nil {
		sp := tr.begin(req, parent, "serve.refresh", "")
		a.s.flushSpan.Store(sp)
		v, st, err := a.inner.Apply(dl)
		sp.end()
		return v, st, err
	}
	before := a.s.coord.Stats()
	sp := tr.begin(req, parent, "dist.apply", "")
	v, st, err := a.inner.Apply(dl)
	sp.end()
	after := a.s.coord.Stats()
	delta := func(k string) float64 { return float64(after[k].(int64) - before[k].(int64)) }
	tr.sample("dist.run_ms", float64(after["last_run_ms"].(int64)))
	tr.sample("dist.rounds", float64(after["rounds_total"].(uint64)-before["rounds_total"].(uint64)))
	tr.sample("dist.broadcast_ms", delta("broadcast_ms"))
	tr.sample("dist.gather_ms", delta("gather_ms"))
	return v, st, err
}
