package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Seeds with pinned output digests: the default seed and one held-out
// seed that no tuning of the benchmark used.
const (
	defaultSeed = 1
	heldOutSeed = 20191114
)

// pins maps a seed to the sha256 of the expected output bytes.
type pins map[uint64]string

// reportPins are the digests of `duireport -quick -parallel 1 -seed N`
// stdout; matrixPins of `robustness -quick -json -parallel 1 -seed N`.
// Regenerate them from those commands when a change to the program is
// meant to change its output.
var (
	reportPins = pins{
		defaultSeed: "fab3ee64af5860fc34d388498bb9cb7677d360d998bc456f1762519866ba3fca",
		heldOutSeed: "2cf2ebf684bdd1466833d1a327660508d1f93e5b6584a027d82f5bd69200e589",
	}
	matrixPins = pins{
		defaultSeed: "e729e2b2ad0c1fae25b48051f242f3004cff10c8654283ba616588886ac50d9c",
		heldOutSeed: "f4cd882c90c5c6302dd82f586d0362f6badba11089cc95d95c3bccdd7dd1ea35",
	}
)

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// check compares data with the seed's pinned digest; an unpinned seed
// passes.
func (p pins) check(seed uint64, data []byte) error {
	want, ok := p[seed]
	if !ok {
		return nil
	}
	if got := digest(data); got != want {
		return fmt.Errorf("seed %d: output sha256 %s, pinned %s", seed, got, want)
	}
	return nil
}
