package core

import (
	"math"
	"testing"

	"repro/internal/exchange"
)

// TestFindingsStableAcrossSeeds re-runs tiny studies under several seeds
// and checks that the paper's qualitative findings are properties of the
// system, not of one lucky seed: overall malicious share near 26.7%,
// SendSurf the worst exchange, Blacklisted the dominant category, and
// the miscellaneous bucket the majority of malicious URLs.
func TestFindingsStableAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	for _, seed := range []uint64{11, 222, 3333} {
		seed := seed
		t.Run(name(seed), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultStudyConfig()
			cfg.Seed = seed
			cfg.Scale = 600
			cfg.MinMalPerPool = 14
			cfg.MinBenignPerPool = 25
			cfg.DriveShortenerTraffic = false
			st, err := runStudy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a := st.Analysis

			if got := a.OverallPctMalicious(); math.Abs(got-0.267) > 0.07 {
				t.Errorf("seed %d: overall malicious share = %.3f", seed, got)
			}
			var sendSurf, bestOther float64
			for _, row := range a.PerExchange {
				if row.Kind != exchange.AutoSurf {
					continue
				}
				if row.Name == "SendSurf" {
					sendSurf = row.PctMalicious()
				} else if row.PctMalicious() > bestOther {
					bestOther = row.PctMalicious()
				}
			}
			if sendSurf <= bestOther {
				t.Errorf("seed %d: SendSurf (%.3f) not the worst auto-surf (max other %.3f)",
					seed, sendSurf, bestOther)
			}
			if items := a.CategoryCounts.Items(); len(items) == 0 || items[0].Key != string(CatBlacklisted) {
				t.Errorf("seed %d: top category not Blacklisted: %+v", seed, items)
			}
			if miscShare := float64(a.MiscCount) / float64(a.TotalMalicious); miscShare < 0.5 {
				t.Errorf("seed %d: misc share = %.3f, want majority", seed, miscShare)
			}
		})
	}
}

func name(seed uint64) string {
	const digits = "0123456789"
	if seed == 0 {
		return "seed-0"
	}
	var buf []byte
	for seed > 0 {
		buf = append([]byte{digits[seed%10]}, buf...)
		seed /= 10
	}
	return "seed-" + string(buf)
}
