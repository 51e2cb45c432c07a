package ilp

// Observe installs f as the branch and bound's run observer until the
// returned function restores the previous one. Tests use it to record
// every ILP a caller builds.
func Observe(f func(p *Problem, opt Options, sol *Solution, err error)) (restore func()) {
	prev := observe
	observe = f
	return func() { observe = prev }
}
