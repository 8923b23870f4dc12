package locusd

// The dynamic circuit lifecycle: runtime upload, incremental mutation,
// and eviction, layered over internal/store. The store owns the
// canonical cost array and the durable record; this file owns the
// serving consequences — standing shard loops up and down, applying each
// mutation's ripped and routed paths to the circuit's serving array, and
// only then bumping the circuit's epoch, which invalidates the result
// cache.

import (
	"errors"
	"fmt"

	"locusroute/internal/circuit"
	"locusroute/internal/route"
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
// logs the upload, and then shard loops come up over a clone of the
// canonical array. Runtime uploads are always mutable.
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
// re-routes only its own wire), apply the same paths to the serving
// array under its write lock, and bump the cost epoch so cached results
// stop answering. A request evaluated after Mutate returns sees the
// mutation; one evaluated in the same instant sees all of it or none.
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
	out := &MutateResponse{Circuit: req.Circuit, Epoch: res.Epoch, Wires: res.Wires}
	view := route.ArrayView{A: sc.arr}
	sc.mu.Lock()
	for i := range res.Results {
		r := &res.Results[i]
		route.RipUp(view, r.Ripped)
		route.Commit(view, r.Routed)
		out.Results = append(out.Results, MutateOpResult{Op: r.Kind.String(), WireID: r.WireID,
			Cost: r.Cost, PathCells: r.PathCells, CellsExamined: r.CellsExamined})
	}
	// The epoch moves only once the array holds the mutation: a request
	// that reads the new epoch is evaluated against the mutated array, so
	// the cache never files a pre-mutation answer under it.
	sc.epoch.Add(uint64(len(res.Results)))
	sc.mu.Unlock()
	s.met.mu.Lock()
	s.met.mutations += int64(len(res.Results))
	s.met.mu.Unlock()
	return out, nil
}
