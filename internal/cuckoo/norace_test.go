//go:build !race

package cuckoo

const raceEnabled = false
