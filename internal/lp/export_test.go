package lp

// Observe installs f as the solver's model observer until the returned
// function restores the previous one. Tests use it to record every LP a
// caller builds.
func Observe(f func(p *Problem, warm bool, sol *Solution, err error)) (restore func()) {
	prev := observe
	observe = f
	return func() { observe = prev }
}
