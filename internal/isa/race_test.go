//go:build race

package isa

// raceEnabled reports a race-detector build, where sync.Pool drops items
// at random, so pooled paths allocate more than they do in production.
const raceEnabled = true
