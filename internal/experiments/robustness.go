package experiments

import (
	"fmt"
	"math"

	"locusroute/internal/circuit"
	"locusroute/internal/metrics"
	"locusroute/internal/mp"
)

// RobustnessRow summarises one claim across seeds.
type RobustnessRow struct {
	Claim string
	Held  int
	Total int
	// Margin is the mean of the claim's margin metric across seeds (the
	// ratio that should exceed 1.0).
	Margin float64
}

// robustnessCheck is one comparative claim; margin returns the ratio
// that should exceed 1.0 for the claim to hold.
type robustnessCheck struct {
	name   string
	margin func(c *circuit.Circuit, s Setup) (float64, error)
}

func robustnessChecks() []robustnessCheck {
	return []robustnessCheck{
		{
			name: "sender traffic > receiver traffic",
			margin: func(c *circuit.Circuit, s Setup) (float64, error) {
				snd, err := runMP(c, s, mp.SenderInitiated(2, 5), "snd")
				if err != nil {
					return 0, err
				}
				rcv, err := runMP(c, s, mp.ReceiverInitiated(1, 5, false), "rcv")
				if err != nil {
					return 0, err
				}
				return snd.MBytes / math.Max(rcv.MBytes, 1e-9), nil
			},
		},
		{
			name: "rarer receiver updates -> less traffic",
			margin: func(c *circuit.Circuit, s Setup) (float64, error) {
				eager, err := runMP(c, s, mp.ReceiverInitiated(1, 5, false), "eager")
				if err != nil {
					return 0, err
				}
				lazy, err := runMP(c, s, mp.ReceiverInitiated(1, 30, false), "lazy")
				if err != nil {
					return 0, err
				}
				return eager.MBytes / math.Max(lazy.MBytes, 1e-9), nil
			},
		},
		{
			name: "SM traffic grows 4B -> 32B lines",
			margin: func(c *circuit.Circuit, s Setup) (float64, error) {
				rows, err := Table3(c, s)
				if err != nil {
					return 0, err
				}
				return rows[len(rows)-1].MBytes / math.Max(rows[0].MBytes, 1e-9), nil
			},
		},
		{
			name: "pure locality slower than balanced threshold",
			margin: func(c *circuit.Circuit, s Setup) (float64, error) {
				rows, err := Table4([]*circuit.Circuit{c}, s)
				if err != nil {
					return 0, err
				}
				var t30, inf float64
				for _, r := range rows {
					switch r.Method {
					case "ThresholdCost = 30":
						t30 = r.Seconds
					case "ThresholdCost = inf.":
						inf = r.Seconds
					}
				}
				return inf / math.Max(t30, 1e-9), nil
			},
		},
		{
			name: "quality degrades 2 -> 16 processors",
			margin: func(c *circuit.Circuit, s Setup) (float64, error) {
				rows, err := Table6(c, s)
				if err != nil {
					return 0, err
				}
				return float64(rows[len(rows)-1].CktHt) / math.Max(float64(rows[0].CktHt), 1), nil
			},
		},
	}
}

// Robustness re-checks the paper's headline comparative claims across
// several circuit generator seeds, reporting how often each holds. The
// synthetic circuits make absolute numbers seed-dependent; the claims the
// reproduction stands on should hold for most seeds. Every seed×check
// pair is an independent cell (some fan out further internally); margins
// are folded into per-claim rows after the fan-out.
func Robustness(seeds []int64, s Setup) ([]RobustnessRow, error) {
	checks := robustnessChecks()
	type task struct {
		seed  int64
		check int
	}
	var tasks []task
	for _, seed := range seeds {
		for i := range checks {
			tasks = append(tasks, task{seed: seed, check: i})
		}
	}
	margins, err := cells(s, tasks, func(t task, sub Setup) (float64, error) {
		c, err := circuit.Generate(circuit.BnrELike(t.seed))
		if err != nil {
			return 0, fmt.Errorf("experiments: robustness seed %d: %w", t.seed, err)
		}
		return checks[t.check].margin(c, sub)
	})
	if err != nil {
		return nil, err
	}

	rows := make([]RobustnessRow, len(checks))
	for i, ch := range checks {
		rows[i].Claim = ch.name
	}
	for ti, m := range margins {
		i := tasks[ti].check
		rows[i].Total++
		rows[i].Margin += m
		if m > 1 {
			rows[i].Held++
		}
	}
	for i := range rows {
		if rows[i].Total > 0 {
			rows[i].Margin /= float64(rows[i].Total)
		}
	}
	return rows, nil
}

// RenderRobustness renders the robustness sweep.
func RenderRobustness(rows []RobustnessRow) string {
	t := metrics.NewTable("Robustness: headline claims across circuit seeds",
		"Claim", "Held", "Mean margin")
	for _, r := range rows {
		t.Add(r.Claim, fmt.Sprintf("%d/%d", r.Held, r.Total), fmt.Sprintf("%.2fx", r.Margin))
	}
	return t.String()
}
