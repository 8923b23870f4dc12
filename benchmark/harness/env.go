package harness

import (
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// Env is the machine and build a report was measured on: no row
// without its environment (ROADMAP item 1).
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	// Commit is the VCS revision — stamped into the binary by go build, or
	// asked of git under go run — with "+dirty" when the tree was
	// modified, or "unknown" where the checkout is not a repository, as in
	// the pipeline's checkouts.
	Commit string `json:"commit"`
}

// ReadEnv describes the current process's environment.
func ReadEnv() Env {
	e := Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			e.Commit = rev + dirty
		}
	}
	if e.Commit == "unknown" {
		// `go run` does not stamp VCS information; ask git, if there is one.
		if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(rev))
			if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
				e.Commit += "+dirty"
			}
		}
	}
	return e
}
