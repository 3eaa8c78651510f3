//go:build race

package main

// raceEnabled reports whether the binary was built with the race
// detector, under which the harness refuses to record.
const raceEnabled = true
