package obs

import (
	"fmt"
	"os"
	"runtime/pprof"
)

// WriteFile writes the snapshot as JSON to the file at path.
func (s Snapshot) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: write %s: %w", path, err)
	}
	return f.Close()
}

// StartCPUProfile starts a CPU profile written to path and returns the
// function that stops it and closes the file. An empty path is a no-op.
func StartCPUProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}
