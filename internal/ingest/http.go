package ingest

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"

	"sound/internal/checker"
	"sound/internal/core"
	"sound/internal/stream"
	"sound/internal/wire"
)

// ServeTCP accepts binary-frame connections until the listener closes
// (Drain closes it). Each connection decodes frames and fans events out
// to the shards; a clean close flushes the connection's partial frames,
// a decode error drops the connection (sticky decoder — there is no
// resynchronizing a torn length-prefixed stream).
func (s *Server) ServeTCP(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrDraining
	}
	s.tcpLn = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		if !s.beginIngest() {
			conn.Close()
			continue
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				s.endIngest()
			}()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	rt := s.newRouter()
	dec := wire.NewFrameDecoder(bufio.NewReaderSize(conn, 1<<16))
	for {
		evs, err := dec.Next()
		if err != nil {
			if err != io.EOF {
				s.decodeErrors.Add(1)
			}
			rt.flush()
			return
		}
		rt.addFrame(evs)
		// Input-frame boundary: the producer chose this batch; don't
		// hold its tail events back for a fuller transport frame.
		rt.flush()
	}
}

// Handler returns the HTTP surface:
//
//	POST   /ingest         NDJSON event lines → {"ingested": n}
//	GET    /stats          live counters (JSON Stats)
//	GET    /outcomes       streaming NDJSON feed of check outcomes
//	POST   /drain          graceful drain; responds with the final Stats
//	POST   /checks         register a check (body: ParseCheck spec text)
//	DELETE /checks/{name}  deregister a check by name
//	GET    /checks         registered names + multiplexing group stats
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /outcomes", s.handleOutcomes)
	mux.HandleFunc("POST /drain", s.handleDrain)
	mux.HandleFunc("POST /checks", s.handleAddCheck)
	mux.HandleFunc("DELETE /checks/{name}", s.handleRemoveCheck)
	mux.HandleFunc("GET /checks", s.handleListChecks)
	return mux
}

// handleAddCheck registers one check at runtime. The body is a single
// ParseCheck spec line (the same grammar as the -check flag), e.g.
//
//	curl -X POST :7071/checks -d 'range;min=0;max=100;window=time:60;name=rng'
//
// Registration is admission-controlled by Config.MaxChecks (429 on
// quota) and rejected once the server drains (503).
func (s *Server) handleAddCheck(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	spec := strings.TrimSpace(string(body))
	if spec == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("empty check spec"))
		return
	}
	params := s.cfg.DefaultParams
	if params.Credibility == 0 {
		params = core.DefaultParams()
	}
	cc, err := ParseCheck(spec, params, s.cfg.DefaultSeed, checker.EvictionPolicy{})
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.AddCheck(cc); err != nil {
		switch {
		case errors.Is(err, ErrCheckQuota):
			httpError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining):
			httpError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, checker.ErrCheckExists):
			httpError(w, http.StatusConflict, err)
		default:
			httpError(w, http.StatusBadRequest, err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"registered": cc.Name, "checks": len(s.CheckNames())})
}

func (s *Server) handleRemoveCheck(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.RemoveCheck(name); err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"removed": name, "checks": len(s.CheckNames())})
}

func (s *Server) handleListChecks(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{
		"checks": s.CheckNames(),
		"groups": s.GroupStats(),
	})
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// ndjsonPool recycles request decoders: one warm decoder per concurrent
// request, so steady-state HTTP ingest keeps the zero-alloc-per-event
// property of the underlying codec.
var ndjsonPool = sync.Pool{}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.beginIngest() {
		http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
		return
	}
	defer s.endIngest()
	var dec *wire.NDJSONDecoder
	if v := ndjsonPool.Get(); v != nil {
		dec = v.(*wire.NDJSONDecoder)
		dec.Reset(r.Body)
	} else {
		dec = wire.NewNDJSONDecoder(r.Body)
	}
	defer ndjsonPool.Put(dec)
	rt := s.newRouter()
	n := 0
	for {
		ev, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			rt.flush()
			s.decodeErrors.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "ingested": n})
			return
		}
		rt.add(ev)
		n++
	}
	rt.flush()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"ingested\":%d}\n", n)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats())
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	err := s.Drain()
	st := s.Stats()
	if err != nil {
		st.Err = err.Error()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}

func (s *Server) handleOutcomes(w http.ResponseWriter, r *http.Request) {
	fl, _ := w.(http.Flusher)
	sub := s.subscribe()
	defer s.unsubscribe(sub)
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Flush the headers now: a streaming client blocks on them before it
	// sees a single outcome line.
	w.WriteHeader(http.StatusOK)
	if fl != nil {
		fl.Flush()
	}
	enc := json.NewEncoder(w)
	for {
		select {
		case msg, ok := <-sub.ch:
			if !ok {
				return // server drained
			}
			if enc.Encode(msg) != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// OutcomeMsg is one entry of the /outcomes feed.
type OutcomeMsg struct {
	Check   string `json:"check"`
	Key     string `json:"key"`
	Outcome string `json:"outcome"`
}

type subscriber struct {
	ch chan OutcomeMsg
}

func (s *Server) subscribe() *subscriber {
	sub := &subscriber{ch: make(chan OutcomeMsg, 1024)}
	s.subMu.Lock()
	s.subs[sub] = struct{}{}
	s.subMu.Unlock()
	s.nsubs.Add(1)
	return sub
}

func (s *Server) unsubscribe(sub *subscriber) {
	s.subMu.Lock()
	if _, ok := s.subs[sub]; ok {
		delete(s.subs, sub)
		s.nsubs.Add(-1)
	}
	s.subMu.Unlock()
}

func (s *Server) closeSubscribers() {
	s.subMu.Lock()
	for sub := range s.subs {
		delete(s.subs, sub)
		s.nsubs.Add(-1)
		close(sub.ch)
	}
	s.subMu.Unlock()
}

// publish fans one outcome to the live subscribers. Runs on the
// evaluating shard goroutine: with no subscribers it is one atomic
// load; with a slow subscriber the message is dropped and counted, the
// verdict path is never blocked by a reader.
func (s *Server) publish(check, key string, o core.Outcome) {
	if s.nsubs.Load() == 0 {
		return
	}
	msg := OutcomeMsg{Check: check, Key: key, Outcome: o.String()}
	s.subMu.Lock()
	for sub := range s.subs {
		select {
		case sub.ch <- msg:
		default:
			s.subsDropped.Add(1)
		}
	}
	s.subMu.Unlock()
}

// CheckStats is one registered check's live counter snapshot.
type CheckStats struct {
	Name         string `json:"name"`
	Satisfied    int    `json:"satisfied"`
	Violated     int    `json:"violated"`
	Inconclusive int    `json:"inconclusive"`
	// Lifecycle counters (DESIGN.md §4i).
	EvictedGroups  int `json:"evicted_groups"`
	DroppedLate    int `json:"dropped_late"`
	RejectedEvents int `json:"rejected_events"`
}

// ShardStats is one shard's live snapshot.
type ShardStats struct {
	Consumed int64  `json:"consumed"`
	Err      string `json:"err,omitempty"`
}

// Stats is the live counter snapshot served at /stats. Ingested counts
// events accepted into shard lanes; Consumed counts events a shard's
// loop has taken from its lane. The loop hands the check operator frames
// of exactly BatchSize (64 by default), so Consumed runs ahead of the
// verdicts by up to one partial frame per shard: when Consumed ==
// Ingested, the events of a shard's trailing partial frame have been
// counted but their verdicts fire only once later events fill the frame
// or the server drains. Dropped counts the events a dead shard took from
// its lane without evaluating; after Drain, Consumed + Dropped ==
// Ingested. Edges is always empty: a shard has no graph edges to gauge.
type Stats struct {
	Ingested        int64        `json:"ingested"`
	Consumed        int64        `json:"consumed"`
	Dropped         int64        `json:"dropped"`
	DecodeErrors    int64        `json:"decode_errors"`
	OutcomesDropped int64        `json:"outcomes_dropped"`
	Draining        bool         `json:"draining"`
	Shards          []ShardStats `json:"shards"`
	Checks          []CheckStats `json:"checks"`
	// Groups are the multiplexing buckets: which checks share window
	// state and draws, and how much sharing bought (DESIGN.md §4l).
	Groups []checker.GroupStat         `json:"groups,omitempty"`
	Edges  map[string]stream.EdgeDepth `json:"edges,omitempty"`
	Err    string                      `json:"err,omitempty"`
}

// Stats returns a live snapshot; safe to call at any time, including
// while shards are mid-frame.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	st := Stats{
		Ingested:        s.ingested.Load(),
		Dropped:         s.dropped.Load(),
		DecodeErrors:    s.decodeErrors.Load(),
		OutcomesDropped: s.subsDropped.Load(),
		Draining:        draining,
	}
	for _, sh := range s.shards {
		ss := ShardStats{Consumed: sh.consumed.Load()}
		if err := sh.err.Load(); err != nil {
			ss.Err = (*err).Error()
		}
		st.Consumed += ss.Consumed
		st.Shards = append(st.Shards, ss)
	}
	s.checkMu.Lock()
	checks := append([]*checkState(nil), s.checks...)
	s.checkMu.Unlock()
	for _, cs := range checks {
		c := cs.out.Counts()
		lc := cs.out.Lifecycle()
		st.Checks = append(st.Checks, CheckStats{
			Name:           cs.cfg.Name,
			Satisfied:      c.Satisfied,
			Violated:       c.Violated,
			Inconclusive:   c.Inconclusive,
			EvictedGroups:  lc.EvictedGroups,
			DroppedLate:    lc.DroppedLate,
			RejectedEvents: lc.RejectedEvents,
		})
	}
	st.Groups = s.mux.GroupStats()
	return st
}
