// Package anneal implements the simulated-annealing analog placer the paper
// uses as its baseline: a sequence-pair floorplanner over symmetry-island
// macro blocks (symmetric pairs are fused into mirrored islands, aligned
// pairs into rigid macros), with flipping moves and an adaptive geometric
// cooling schedule. One call anneals one chain; package refine runs several
// as a portfolio. The optional performance term turns it into the
// performance-driven SA of [19]: the GNN's failure probability Φ is added
// to the cost and evaluated by inference at every accepted candidate.
package anneal

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/seqpair"
)

// PerfModel estimates the probability that circuit performance is
// unsatisfactory for a candidate placement (the GNN model Φ of [19]).
type PerfModel interface {
	Prob(n *circuit.Netlist, p *circuit.Placement) float64
}

// Options configures the annealer.
type Options struct {
	Seed int64
	// Moves is the proposal budget (default 1500000 + 75000·n). A warm
	// run (Warm set) makes max(Moves/3, 2000) proposals.
	Moves int

	AreaWeight float64 // weight of normalized area (default 0.5)
	WLWeight   float64 // weight of normalized HPWL (default 0.5)

	// Perf enables performance-driven annealing: PerfWeight·Φ(placement)
	// joins the cost.
	Perf       PerfModel
	PerfWeight float64

	// Tracer, when non-nil, wraps the run in an "sa" span and emits one
	// progress sample every Moves/200 proposals (at least every proposal):
	// temperature, windowed acceptance rate, current and best cost. Nil
	// costs one pointer check per move.
	Tracer *obs.Tracer

	// Warm, when non-nil, seeds the annealer from a prior placement (the
	// ECO analogue of the analytical placers' anchor pseudonets): the
	// initial sequence pair is derived from the prior macro positions
	// instead of a random permutation, anchored devices pay a
	// displacement cost pulling them toward their prior spots, macros
	// whose devices are all anchored are frozen internally (sequence-pair
	// moves still reposition them), and the starting temperature is
	// reduced so the search polishes rather than re-explores, on a third
	// of the move budget. Nil reproduces the blessed cold-start behavior
	// exactly.
	Warm *circuit.Prior
}

// warmWeight is a warm run's displacement term's share of the normalized
// cost.
const warmWeight = 0.3

func (o *Options) defaults(n int) {
	if o.Moves == 0 {
		o.Moves = 1500000 + 75000*n
	}
	if o.Warm != nil {
		// A seeded, low-temperature anneal needs far fewer proposals than
		// a cold start to polish the edit.
		o.Moves = max(o.Moves/3, 2000)
	}
	if o.AreaWeight == 0 && o.WLWeight == 0 {
		o.AreaWeight, o.WLWeight = 0.5, 0.5
	}
}

// Stats reports annealing diagnostics.
type Stats struct {
	Proposals int
	Accepts   int
	BestCost  float64
}

type macroKind int

const (
	mSingle      macroKind = iota
	mIsland                // one symmetry group
	mBottomPair            // bottom-aligned chain (>= 2 devices in a row)
	mVCenterPair           // x-center-aligned chain (>= 2 devices stacked)
)

type rowRef struct {
	isPair bool
	idx    int // index into group.Pairs or group.Self
}

// macro is a rigid or semi-rigid block handed to the sequence pair.
type macro struct {
	kind    macroKind
	devices []int

	// Island state.
	group    int      // symmetry group index
	rows     []rowRef // bottom-to-top row order (mutable by SA)
	pairSwap []bool   // per pair: mirror the two devices' sides
	flipY    []bool   // per row: vertical flip of the row's devices
	flipX    bool     // for mSingle / align macros: horizontal flip
	yFlip    bool     // for mSingle / align macros: vertical flip
}

// state is one SA candidate: a sequence pair plus macro-internal choices.
type state struct {
	sp     *seqpair.Pair
	macros []*macro
}

func (s *state) clone() *state {
	ms := make([]*macro, len(s.macros))
	for i, m := range s.macros {
		c := *m
		c.rows = append([]rowRef(nil), m.rows...)
		c.pairSwap = append([]bool(nil), m.pairSwap...)
		c.flipY = append([]bool(nil), m.flipY...)
		ms[i] = &c
	}
	return &state{sp: s.sp.Clone(), macros: ms}
}

// buildMacros groups devices into SA blocks.
func buildMacros(n *circuit.Netlist) ([]*macro, error) {
	used := make([]bool, len(n.Devices))
	var macros []*macro
	for gi := range n.SymGroups {
		g := &n.SymGroups[gi]
		m := &macro{kind: mIsland, group: gi}
		for pi, pr := range g.Pairs {
			m.rows = append(m.rows, rowRef{isPair: true, idx: pi})
			m.devices = append(m.devices, pr[0], pr[1])
			used[pr[0]], used[pr[1]] = true, true
		}
		for si, r := range g.Self {
			m.rows = append(m.rows, rowRef{isPair: false, idx: si})
			m.devices = append(m.devices, r)
			used[r] = true
		}
		m.pairSwap = make([]bool, len(g.Pairs))
		m.flipY = make([]bool, len(m.rows))
		macros = append(macros, m)
	}
	addChains := func(pairs [][2]int, kind macroKind) error {
		for _, ch := range fuseChains(pairs) {
			for _, d := range ch {
				if used[d] {
					return fmt.Errorf("anneal: device %d in overlapping constraint groups; a device may join at most one symmetry group or alignment chain", d)
				}
				used[d] = true
			}
			macros = append(macros, &macro{kind: kind, devices: ch})
		}
		return nil
	}
	if err := addChains(n.BottomAlign, mBottomPair); err != nil {
		return nil, err
	}
	if err := addChains(n.VCenterAlign, mVCenterPair); err != nil {
		return nil, err
	}
	for i := range n.Devices {
		if !used[i] {
			macros = append(macros, &macro{kind: mSingle, devices: []int{i}})
		}
	}
	return macros, nil
}

// fuseChains merges alignment pairs sharing devices into ordered chains, so
// chained constraints like (a,b),(b,c) — a current-mirror array's adjacent
// bottom-alignments — become one rigid k-device macro. Disjoint pairs come
// out unchanged, preserving the historical two-device macro layouts.
func fuseChains(pairs [][2]int) [][]int {
	idx := map[int]int{} // device -> chain slot
	var chains [][]int
	for _, pr := range pairs {
		a, b := pr[0], pr[1]
		ca, okA := idx[a]
		cb, okB := idx[b]
		switch {
		case !okA && !okB:
			idx[a], idx[b] = len(chains), len(chains)
			chains = append(chains, []int{a, b})
		case okA && !okB:
			idx[b] = ca
			chains[ca] = append(chains[ca], b)
		case !okA && okB:
			idx[a] = cb
			chains[cb] = append(chains[cb], a)
		case ca != cb:
			for _, d := range chains[cb] {
				idx[d] = ca
			}
			chains[ca] = append(chains[ca], chains[cb]...)
			chains[cb] = nil
		}
	}
	out := chains[:0]
	for _, ch := range chains {
		if ch != nil {
			out = append(out, ch)
		}
	}
	return out
}

// layout computes the macro's bounding block and writes device placements
// relative to the macro's lower-left corner into relX/relY/flipX/flipY
// (indexed by device).
func (m *macro) layout(n *circuit.Netlist, relX, relY []float64, flipX, flipY []bool) seqpair.Block {
	switch m.kind {
	case mSingle:
		i := m.devices[0]
		d := &n.Devices[i]
		relX[i], relY[i] = d.W/2, d.H/2
		flipX[i], flipY[i] = m.flipX, m.yFlip
		return seqpair.Block{W: d.W, H: d.H}
	case mBottomPair:
		// Bottom-aligned row of >= 2 devices, left to right in chain order.
		var x, maxH float64
		for _, i := range m.devices {
			d := &n.Devices[i]
			relX[i], relY[i] = x+d.W/2, d.H/2
			flipX[i], flipY[i] = m.flipX, m.yFlip
			x += d.W
			maxH = math.Max(maxH, d.H)
		}
		return seqpair.Block{W: x, H: maxH}
	case mVCenterPair:
		// X-center-aligned stack of >= 2 devices, bottom to top.
		var maxW float64
		for _, i := range m.devices {
			maxW = math.Max(maxW, n.Devices[i].W)
		}
		var y float64
		for _, i := range m.devices {
			d := &n.Devices[i]
			relX[i], relY[i] = maxW/2, y+d.H/2
			flipX[i], flipY[i] = m.flipX, m.yFlip
			y += d.H
		}
		return seqpair.Block{W: maxW, H: y}
	default: // mIsland
		g := &n.SymGroups[m.group]
		var width float64
		for _, r := range m.rows {
			if r.isPair {
				width = math.Max(width, 2*n.Devices[g.Pairs[r.idx][0]].W)
			} else {
				width = math.Max(width, n.Devices[g.Self[r.idx]].W)
			}
		}
		axis := width / 2
		var y float64
		for ri, r := range m.rows {
			if r.isPair {
				q1, q2 := g.Pairs[r.idx][0], g.Pairs[r.idx][1]
				if m.pairSwap[r.idx] {
					q1, q2 = q2, q1
				}
				d := &n.Devices[q1]
				relX[q1], relY[q1] = axis-d.W/2, y+d.H/2
				relX[q2], relY[q2] = axis+d.W/2, y+d.H/2
				// Mirror layout: the right device is the left one flipped.
				flipX[q1], flipX[q2] = false, true
				flipY[q1], flipY[q2] = m.flipY[ri], m.flipY[ri]
				y += d.H
			} else {
				r0 := g.Self[r.idx]
				d := &n.Devices[r0]
				relX[r0], relY[r0] = axis, y+d.H/2
				flipX[r0], flipY[r0] = false, m.flipY[ri]
				y += d.H
			}
		}
		return seqpair.Block{W: width, H: y}
	}
}

// axisOffset returns the symmetry-axis x offset within an island macro.
func (m *macro) axisOffset(n *circuit.Netlist) float64 {
	g := &n.SymGroups[m.group]
	var width float64
	for _, r := range m.rows {
		if r.isPair {
			width = math.Max(width, 2*n.Devices[g.Pairs[r.idx][0]].W)
		} else {
			width = math.Max(width, n.Devices[g.Self[r.idx]].W)
		}
	}
	return width / 2
}

// evaluator turns a state into a placement and cost.
type evaluator struct {
	n      *circuit.Netlist
	opt    *Options
	blocks []seqpair.Block
	place  *circuit.Placement
	relX   []float64
	relY   []float64

	normArea float64
	normWL   float64

	// Warm-start displacement term (nil when cold or nothing is anchored).
	warm      *circuit.Prior
	warmScale float64 // normalizing length: sqrt(total device area)
	warmCount int     // anchored device count
}

func newEvaluator(n *circuit.Netlist, opt *Options) *evaluator {
	ev := &evaluator{
		n:        n,
		opt:      opt,
		place:    circuit.NewPlacement(n),
		relX:     make([]float64, len(n.Devices)),
		relY:     make([]float64, len(n.Devices)),
		normArea: math.Max(n.TotalDeviceArea(), 1),
	}
	if w := opt.Warm; w != nil {
		if ev.warmCount = w.AnchorCount(); ev.warmCount > 0 {
			ev.warm = w
			ev.warmScale = math.Sqrt(ev.normArea)
		}
	}
	return ev
}

// realize packs the state and fills ev.place (shared scratch; copy to keep).
func (ev *evaluator) realize(s *state) {
	if cap(ev.blocks) < len(s.macros) {
		ev.blocks = make([]seqpair.Block, len(s.macros))
	}
	ev.blocks = ev.blocks[:len(s.macros)]
	for mi, m := range s.macros {
		ev.blocks[mi] = m.layout(ev.n, ev.relX, ev.relY, ev.place.FlipX, ev.place.FlipY)
	}
	pos, _, _ := s.sp.Pack(ev.blocks)
	for mi, m := range s.macros {
		for _, d := range m.devices {
			ev.place.X[d] = pos[mi].X + ev.relX[d]
			ev.place.Y[d] = pos[mi].Y + ev.relY[d]
		}
		if m.kind == mIsland {
			ev.place.AxisX[m.group] = pos[mi].X + m.axisOffset(ev.n)
		}
	}
}

// cost evaluates the weighted cost of a state.
func (ev *evaluator) cost(s *state) float64 {
	ev.realize(s)
	area := ev.n.Area(ev.place)
	hpwl := ev.n.HPWL(ev.place)
	if ev.normWL == 0 {
		ev.normWL = math.Max(hpwl, 1)
	}
	c := ev.opt.AreaWeight*area/ev.normArea + ev.opt.WLWeight*hpwl/ev.normWL
	c += ev.orderPenalty()
	if ev.warm != nil {
		var disp float64
		for i, a := range ev.warm.Anchored {
			if !a {
				continue
			}
			disp += math.Abs(ev.place.X[i]-ev.warm.X[i]) + math.Abs(ev.place.Y[i]-ev.warm.Y[i])
		}
		c += warmWeight * disp / (ev.warmScale * float64(ev.warmCount))
	}
	if ev.opt.Perf != nil && ev.opt.PerfWeight != 0 {
		c += ev.opt.PerfWeight * ev.opt.Perf.Prob(ev.n, ev.place)
	}
	return c
}

// orderPenalty charges horizontal-order violations (Eq. 4i) proportionally
// to the violation distance.
func (ev *evaluator) orderPenalty() float64 {
	var pen float64
	for _, grp := range ev.n.HOrders {
		for k := 0; k+1 < len(grp); k++ {
			j, kk := grp[k], grp[k+1]
			right := ev.place.X[j] + ev.n.Devices[j].W/2
			left := ev.place.X[kk] - ev.n.Devices[kk].W/2
			if right > left {
				pen += (right - left) * 0.05
			}
		}
	}
	return pen
}

// mutate applies one random move to s in place. frozen, when non-nil,
// marks macros whose internal state must not change (fully anchored
// warm-start macros): a macro-internal move landing on one is redirected
// to a sequence-pair swap so the proposal is never a no-op.
func mutate(s *state, rng *rand.Rand, frozen []bool) {
	nb := s.sp.Len()
	r := rng.Float64()
	switch {
	case r < 0.35 && nb >= 2:
		s.sp.SwapPlus(rng.Intn(nb), rng.Intn(nb))
	case r < 0.55 && nb >= 2:
		s.sp.SwapMinus(rng.Intn(nb), rng.Intn(nb))
	case r < 0.70 && nb >= 2:
		s.sp.SwapBoth(rng.Intn(nb), rng.Intn(nb))
	default:
		mi := rng.Intn(len(s.macros))
		if frozen != nil && frozen[mi] {
			if nb >= 2 {
				s.sp.SwapBoth(rng.Intn(nb), rng.Intn(nb))
			}
			return
		}
		m := s.macros[mi]
		switch m.kind {
		case mIsland:
			switch k := rng.Intn(3); {
			case k == 0 && len(m.rows) >= 2:
				i, j := rng.Intn(len(m.rows)), rng.Intn(len(m.rows))
				m.rows[i], m.rows[j] = m.rows[j], m.rows[i]
				m.flipY[i], m.flipY[j] = m.flipY[j], m.flipY[i]
			case k == 1 && len(m.pairSwap) > 0:
				i := rng.Intn(len(m.pairSwap))
				m.pairSwap[i] = !m.pairSwap[i]
			default:
				i := rng.Intn(len(m.flipY))
				m.flipY[i] = !m.flipY[i]
			}
		default:
			if rng.Intn(2) == 0 {
				m.flipX = !m.flipX
			} else {
				m.yFlip = !m.yFlip
			}
		}
	}
}

// cancelCheckEvery is the move cadence at which the annealing loop polls the
// context: frequent enough that cancellation lands within milliseconds,
// sparse enough that the per-move cost stays one integer test.
const cancelCheckEvery = 256

// Place runs one simulated-annealing chain and returns the best legal
// placement found. The move loop polls ctx every cancelCheckEvery
// proposals and returns ctx.Err() when it fires. A canceled run returns no
// partial placement, so results remain deterministic: a run either
// completes identically to an uncanceled one or fails with the context's
// error.
func Place(ctx context.Context, n *circuit.Netlist, opt Options) (*circuit.Placement, *Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := n.Validate(); err != nil {
		return nil, nil, err
	}
	opt.defaults(len(n.Devices))
	macros, err := buildMacros(n)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	ev := newEvaluator(n, &opt)
	stats := &Stats{}

	saSpan := opt.Tracer.StartSpan("sa")
	defer saSpan.End()

	done := ctx.Done()

	var bestPlace *circuit.Placement
	bestCost := math.Inf(1)

	var sp0 *seqpair.Pair
	var frozen []bool
	if opt.Warm != nil {
		sp0 = warmSeqpair(macros, opt.Warm)
		frozen = frozenMacros(macros, opt.Warm)
	} else {
		sp0 = seqpair.Random(len(macros), rng)
	}
	cur := &state{sp: sp0, macros: macros}
	cur = cur.clone() // own the macro state
	curCost := ev.cost(cur)
	if opt.Warm != nil {
		// A cold run only records accepted moves, which is safe because a
		// random start is never the optimum; a warm seed very well may be,
		// so record it before the first proposal.
		bestCost = curCost
		ev.realize(cur)
		bestPlace = ev.place.Clone()
	}

	// Temperature calibration: sample move deltas.
	var sumAbs float64
	samples := 50
	for i := 0; i < samples; i++ {
		trial := cur.clone()
		mutate(trial, rng, frozen)
		sumAbs += math.Abs(ev.cost(trial) - curCost)
	}
	t0 := math.Max(sumAbs/float64(samples), 1e-6)
	if opt.Warm != nil {
		// Low-temperature treatment: polish the seeded configuration
		// instead of melting it.
		t0 = math.Max(t0*0.15, 1e-6)
	}
	tf := t0 * 1e-5
	alpha := math.Pow(tf/t0, 1/float64(opt.Moves))

	temp := t0
	traceEvery := max(opt.Moves/200, 1) // proposals per progress sample
	winProposals, winAccepts := 0, 0
	for move := 0; move < opt.Moves; move++ {
		if move%cancelCheckEvery == 0 {
			select {
			case <-done:
				return nil, nil, ctx.Err()
			default:
			}
		}
		trial := cur.clone()
		mutate(trial, rng, frozen)
		c := ev.cost(trial)
		stats.Proposals++
		winProposals++
		if d := c - curCost; d <= 0 || rng.Float64() < math.Exp(-d/temp) {
			cur, curCost = trial, c
			stats.Accepts++
			winAccepts++
			if curCost < bestCost {
				bestCost = curCost
				ev.realize(cur)
				bestPlace = ev.place.Clone()
			}
		}
		temp *= alpha
		if opt.Tracer != nil && (move+1)%traceEvery == 0 {
			opt.Tracer.SAEvent(obs.SARecord{
				Move: move + 1, Temp: temp,
				AcceptRate: float64(winAccepts) / float64(winProposals),
				Cur:        curCost, Best: bestCost,
			})
			winProposals, winAccepts = 0, 0
		}
	}
	stats.BestCost = bestCost
	n.Normalize(bestPlace)
	if opt.Tracer.Enabled() {
		opt.Tracer.Count("sa.proposals", float64(stats.Proposals))
		opt.Tracer.Count("sa.accepts", float64(stats.Accepts))
		opt.Tracer.Gauge("sa.best_cost", bestCost)
	}
	return bestPlace, stats, nil
}

// warmSeqpair derives a sequence pair from the prior macro positions: in
// Γ+ macros are ordered by ascending cx−cy and in Γ− by ascending cx+cy,
// the classic placement→sequence-pair mapping (a macro up-left of another
// precedes it in Γ+ only; down-left precedes in both). Macros with no
// usable prior coordinate (all-new devices) pack last, in index order.
func warmSeqpair(macros []*macro, w *circuit.Prior) *seqpair.Pair {
	nm := len(macros)
	type ck struct {
		ok     bool
		cx, cy float64
	}
	centers := make([]ck, nm)
	for mi, m := range macros {
		var sx, sy float64
		cnt := 0
		for _, d := range m.devices {
			if !w.ValidAt(d) {
				continue
			}
			sx += w.X[d]
			sy += w.Y[d]
			cnt++
		}
		if cnt > 0 {
			centers[mi] = ck{ok: true, cx: sx / float64(cnt), cy: sy / float64(cnt)}
		}
	}
	order := func(key func(ck) float64) []int {
		idx := make([]int, nm)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ca, cb := centers[idx[a]], centers[idx[b]]
			if ca.ok != cb.ok {
				return ca.ok // placeable macros first, new ones last
			}
			if !ca.ok {
				return idx[a] < idx[b]
			}
			ka, kb := key(ca), key(cb)
			if ka != kb {
				return ka < kb
			}
			return idx[a] < idx[b]
		})
		return idx
	}
	return &seqpair.Pair{
		Plus:  order(func(c ck) float64 { return c.cx - c.cy }),
		Minus: order(func(c ck) float64 { return c.cx + c.cy }),
	}
}

// frozenMacros marks macros every one of whose devices is anchored: their
// internal arrangement is already known-good, so only sequence-pair moves
// may touch them.
func frozenMacros(macros []*macro, w *circuit.Prior) []bool {
	if w.Anchored == nil {
		return nil
	}
	out := make([]bool, len(macros))
	for mi, m := range macros {
		all := len(m.devices) > 0
		for _, d := range m.devices {
			if !w.Anchored[d] {
				all = false
				break
			}
		}
		out[mi] = all
	}
	return out
}
