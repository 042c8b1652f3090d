// Package chaos seeds simdeterminism violations for the fault-campaign
// coverage: a campaign must draw from a generator its caller seeded, so
// any failure replays from the seed alone.
package chaos

import (
	"math/rand"
	"time"
)

type campaignConfig struct {
	Seed int64
}

// clockSeed is the classic unreproducible campaign.
func clockSeed() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want "time.Now in a simulation package"
}

// globalDraw skips the seeded generator altogether.
func globalDraw(n int) int {
	return rand.Intn(n) // want "global math/rand.Intn in a simulation package"
}

// fromConfig and fromParameter are the sanctioned shapes: the seed
// comes from the caller.
func fromConfig(cfg campaignConfig) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed))
}

func fromParameter(seed int64) int {
	return rand.New(rand.NewSource(seed)).Intn(8)
}
