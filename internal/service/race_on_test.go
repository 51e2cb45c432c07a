//go:build race

package service

// raceEnabled reports whether this test binary was built with the race
// detector, so tests can leave out solver work that takes minutes raced.
const raceEnabled = true
