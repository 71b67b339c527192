//go:build race

package cuckoo

// raceEnabled lets the allocation gate stand down under -race, whose
// runtime allocates shadow state of its own, and shortens the stresses.
const raceEnabled = true
