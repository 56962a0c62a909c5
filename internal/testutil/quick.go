package testutil

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"
)

// SeedEnv names the environment variable that replays a seeded test:
// REPRO_TEST_SEED=N go test -run TestName ./pkg draws the inputs seed N
// drew.
const SeedEnv = "REPRO_TEST_SEED"

// defaultSeed is the seed seeded tests draw from when SeedEnv is unset,
// so two runs of the suite draw the same inputs.
const defaultSeed = 1

// Rand returns a generator seeded with defaultSeed, or with SeedEnv's
// value when set, and registers a cleanup that prints the seed and the
// command that replays it if the test fails.
func Rand(t testing.TB) *rand.Rand {
	t.Helper()
	seed := int64(defaultSeed)
	if v := os.Getenv(SeedEnv); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("testutil: %s=%q is not an integer seed", SeedEnv, v)
		}
		seed = n
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("inputs drawn from seed %d; replay with %s=%d go test -run '^%s$'", seed, SeedEnv, seed, t.Name())
		}
	})
	return rand.New(rand.NewSource(seed))
}

// QuickConfig is a testing/quick configuration that checks maxCount
// inputs drawn from Rand(t).
func QuickConfig(t testing.TB, maxCount int) *quick.Config {
	t.Helper()
	return &quick.Config{MaxCount: maxCount, Rand: Rand(t)}
}
