package locusd

// The dynamic circuit lifecycle: runtime upload, incremental mutation,
// and eviction, layered over internal/store. The store owns the
// canonical cost array and the durable record; this file owns the
// serving consequences — standing shards up and down, invalidating the
// result cache by bumping the circuit's epoch, and fanning each
// mutation's path deltas out to every shard replica, where the shard's
// own loop folds them in between batches (the same single-writer
// discipline commits already follow).

import (
	"errors"
	"fmt"

	"locusroute/internal/circuit"
	"locusroute/internal/store"
)

// MutateRequest is one atomic mutation batch against a served circuit.
type MutateRequest struct {
	// Circuit names a served, store-backed circuit.
	Circuit string
	// Ops are applied in order; validation of the whole batch precedes
	// any application, so a rejected batch changed nothing.
	Ops []store.Op
}

// MutateOpResult reports one applied mutation op.
type MutateOpResult struct {
	Op            string `json:"op"`
	WireID        int    `json:"wire"`
	Cost          int64  `json:"cost"`
	PathCells     int    `json:"path_cells"`
	CellsExamined int    `json:"cells_examined"`
}

// MutateResponse reports an applied batch.
type MutateResponse struct {
	Circuit string           `json:"circuit"`
	Epoch   uint64           `json:"epoch"`
	Wires   int              `json:"wires"`
	Results []MutateOpResult `json:"results"`
}

// UploadCircuit routes and serves a new circuit at runtime: the store
// validates, routes the sequential baseline (retaining per-wire paths),
// logs the upload, and then shards come up cloned from the canonical
// array. Runtime uploads are always mutable.
func (s *Server) UploadCircuit(c *circuit.Circuit) (store.Info, error) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.draining.Load() {
		return store.Info{}, ErrDraining
	}
	// The serving registry can briefly trail the store (between these
	// two steps); reject names the server still serves up front so an
	// immutable startup circuit's name cannot be shadowed either.
	s.mu.RLock()
	_, served := s.circuits[c.Name]
	s.mu.RUnlock()
	if served {
		return store.Info{}, fmt.Errorf("%w: %q", ErrCircuitExists, c.Name)
	}
	info, err := s.store.Upload(c)
	if err != nil {
		return store.Info{}, err
	}
	sc, err := s.serveStored(c.Name)
	if err != nil {
		// Lost a race with an eviction of the name we just uploaded.
		return store.Info{}, err
	}
	s.register(sc)
	s.count(&s.met.uploads)
	return info, nil
}

// EvictCircuit stops serving a circuit and removes it from the store.
// In-flight requests against it complete first; once EvictCircuit
// returns, the name is free for re-upload and no cached result from the
// old circuit can be served (the cache keys on a per-registration
// generation).
func (s *Server) EvictCircuit(name string) error {
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.draining.Load() {
		return ErrDraining
	}
	s.mu.Lock()
	sc := s.circuits[name]
	if sc == nil {
		s.mu.Unlock()
		return fmt.Errorf("%w %q", ErrUnknownCircuit, name)
	}
	if !sc.mutable {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrImmutable, name)
	}
	delete(s.circuits, name)
	for i, n := range s.names {
		if n == name {
			s.names = append(s.names[:i], s.names[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	s.totalShards.Add(-int64(len(sc.shards)))
	// New arrivals can no longer find the circuit; wait out the requests
	// and mutations that did, then stop its loops.
	sc.inflight.Wait()
	close(sc.stop)
	s.count(&s.met.evictions)
	if err := s.store.Evict(name); err != nil && !errors.Is(err, store.ErrUnknown) {
		return err
	}
	return nil
}

// Mutate applies one atomic batch to a served circuit: validate, log,
// apply on the canonical array (incrementally — each op rips up and
// re-routes only its own wire), bump the cost epoch so cached results
// stop answering, and fan the path deltas out to every shard replica.
// Shards fold deltas in between batches, so a response routed in the
// same instant may still see the pre-mutation replica — the same
// visibility contract as commits from sibling shards.
func (s *Server) Mutate(req MutateRequest) (*MutateResponse, error) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.draining.Load() {
		return nil, ErrDraining
	}
	sc := s.lookupServed(req.Circuit)
	if sc == nil {
		return nil, fmt.Errorf("%w %q (serving %v)", ErrUnknownCircuit, req.Circuit, s.served())
	}
	defer sc.inflight.Done()
	if !sc.mutable {
		return nil, fmt.Errorf("%w: %q", ErrImmutable, req.Circuit)
	}
	res, err := s.store.Mutate(req.Circuit, req.Ops)
	if err != nil {
		return nil, err
	}
	sc.wireCount.Store(int64(res.Wires))
	// Invalidate before fanning out: a request that raced the mutation
	// and cached under the old epoch can never be served again, even
	// though its shard may not have applied the delta yet.
	sc.epoch.Add(uint64(len(res.Results)))
	u := shardUpdate{}
	out := &MutateResponse{Circuit: req.Circuit, Epoch: res.Epoch, Wires: res.Wires}
	for i := range res.Results {
		r := &res.Results[i]
		if r.Ripped.Len() > 0 {
			u.rip = append(u.rip, r.Ripped)
		}
		if r.Routed.Len() > 0 {
			u.commit = append(u.commit, r.Routed)
		}
		out.Results = append(out.Results, MutateOpResult{Op: r.Kind.String(), WireID: r.WireID,
			Cost: r.Cost, PathCells: r.PathCells, CellsExamined: r.CellsExamined})
	}
	for _, sh := range sc.shards {
		sh.updates <- u
	}
	s.met.mu.Lock()
	s.met.mutations += int64(len(res.Results))
	s.met.mu.Unlock()
	return out, nil
}
