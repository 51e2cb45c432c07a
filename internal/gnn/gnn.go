// Package gnn implements the graph-neural-network performance model of
// [19] used by the performance-driven placers: a two-layer message-passing
// network over the device graph (nodes are devices, edges connect devices
// sharing a net), with mean+max global pooling and an MLP head ending in a
// sigmoid. Its output Φ is the probability that circuit performance is
// unsatisfactory (FOM below threshold).
//
// Both inference and a full hand-written backward pass are provided: the
// backward pass yields parameter gradients for training (Adam + binary
// cross-entropy) and coordinate gradients ∂Φ/∂(x_i, y_i), the quantity
// ePlace-AP injects into its global-placement objective — the role
// TensorFlow's autograd plays in the paper.
package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/circuit"
)

// Architecture constants: node features are [x̃, ỹ, netlen, mismatch, w̃,
// h̃, degree, one-hot device type], where netlen is the normalized total
// HPWL of the device's incident nets and mismatch is the device's share of
// matched-net length asymmetry — the two parasitic proxies the paper's
// performance model [19] keys on, both differentiable back to coordinates.
const (
	hidden  = 16
	headDim = 16
)

var featDim = 7 + circuit.NumDeviceTypes

// Model is a GNN bound to one netlist (fixed graph topology).
type Model struct {
	n       *circuit.Netlist
	scale   float64  // coordinate normalization
	matched [][2]int // matched net pairs for the mismatch feature

	adj  [][]int     // neighbor lists (net cliques, deduplicated)
	invD []float64   // 1/len(adj[i]) (0 for isolated nodes)
	feat [][]float64 // static feature part per node (w̃, h̃, degree, type)
	params

	// Scratch buffers reused across Forward/Backward calls.
	scratch fwdState
}

// params holds all trainable weights as flat slices (row-major matrices).
type params struct {
	w1, u1 []float64 // hidden × featDim
	b1     []float64 // hidden
	w2, u2 []float64 // hidden × hidden
	b2     []float64 // hidden
	w3     []float64 // headDim × 2·hidden
	b3     []float64 // headDim
	w4     []float64 // headDim
	b4     []float64 // 1
}

func (p *params) vecs() [][]float64 {
	return [][]float64{p.w1, p.u1, p.b1, p.w2, p.u2, p.b2, p.w3, p.b3, p.w4, p.b4}
}

// numParams returns the total parameter count.
func (p *params) numParams() int {
	total := 0
	for _, v := range p.vecs() {
		total += len(v)
	}
	return total
}

// flatten copies all parameters into out (allocating if nil) and returns it.
func (p *params) flatten(out []float64) []float64 {
	if out == nil {
		out = make([]float64, p.numParams())
	}
	i := 0
	for _, v := range p.vecs() {
		copy(out[i:], v)
		i += len(v)
	}
	return out
}

// unflatten copies the flat vector back into the parameter slices.
func (p *params) unflatten(flat []float64) {
	i := 0
	for _, v := range p.vecs() {
		copy(v, flat[i:i+len(v)])
		i += len(v)
	}
}

// netExtreme records which pin ref holds a net's bounding coordinate.
type netExtreme struct {
	minX, maxX int // device indices owning the extreme pins
	minY, maxY int
}

// fwdState stores activations needed by the backward pass.
type fwdState struct {
	x        [][]float64 // node features
	extremes []netExtreme
	netLen   []float64   // exact HPWL per net at the last forward
	mx       [][]float64 // neighbor means of x
	pre1     [][]float64
	h1       [][]float64
	mh1      [][]float64
	pre2     [][]float64
	h2       [][]float64
	argmax   []int // per hidden dim, node index of the max
	g        []float64
	pre3     []float64
	z        []float64
	s        float64
	out      float64
}

// New builds a model for netlist n with Xavier-style random initialization
// from the given seed. scale normalizes coordinates (use the placement
// region side or sqrt of total device area).
func New(n *circuit.Netlist, scale float64, seed int64) *Model {
	if scale <= 0 {
		scale = math.Sqrt(n.TotalDeviceArea()) * 2
	}
	m := &Model{n: n, scale: scale}
	m.buildGraph()
	m.initParams(seed)
	return m
}

// Netlist returns the netlist the model is bound to.
func (m *Model) Netlist() *circuit.Netlist { return m.n }

// SetMatchedNets declares net pairs whose parasitics should match (e.g.
// differential nets). Their length asymmetry becomes a node feature for
// every device touching either net. Call before training or inference.
func (m *Model) SetMatchedNets(pairs [][2]int) {
	m.matched = append([][2]int(nil), pairs...)
}

func (m *Model) buildGraph() {
	nd := len(m.n.Devices)
	sets := make([]map[int]bool, nd)
	for i := range sets {
		sets[i] = map[int]bool{}
	}
	for e := range m.n.Nets {
		pins := m.n.Nets[e].Pins
		for i := 0; i < len(pins); i++ {
			for j := i + 1; j < len(pins); j++ {
				a, b := pins[i].Device, pins[j].Device
				if a == b {
					continue
				}
				sets[a][b] = true
				sets[b][a] = true
			}
		}
	}
	m.adj = make([][]int, nd)
	m.invD = make([]float64, nd)
	deg := m.n.DeviceDegree()
	m.feat = make([][]float64, nd)
	maxDim := 1.0
	for i := range m.n.Devices {
		d := &m.n.Devices[i]
		maxDim = math.Max(maxDim, math.Max(d.W, d.H))
	}
	for i := range sets {
		for j := range sets[i] {
			m.adj[i] = append(m.adj[i], j)
		}
		// Deterministic order.
		slices.Sort(m.adj[i])
		if len(m.adj[i]) > 0 {
			m.invD[i] = 1 / float64(len(m.adj[i]))
		}
		d := &m.n.Devices[i]
		f := make([]float64, featDim-3)
		f[0] = d.W / maxDim
		f[1] = d.H / maxDim
		f[2] = float64(deg[i]) / 8
		f[3+int(d.Type)] = 1
		m.feat[i] = f
	}
}

func (m *Model) initParams(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	mk := func(rows, cols int) []float64 {
		v := make([]float64, rows*cols)
		std := math.Sqrt(2 / float64(cols))
		for i := range v {
			v[i] = rng.NormFloat64() * std
		}
		return v
	}
	m.w1 = mk(hidden, featDim)
	m.u1 = mk(hidden, featDim)
	m.b1 = make([]float64, hidden)
	m.w2 = mk(hidden, hidden)
	m.u2 = mk(hidden, hidden)
	m.b2 = make([]float64, hidden)
	m.w3 = mk(headDim, 2*hidden)
	m.b3 = make([]float64, headDim)
	m.w4 = mk(1, headDim)
	m.b4 = make([]float64, 1)
}

// features fills st.x with per-node features for placement p: centered,
// scale-normalized coordinates plus the static part.
func (m *Model) features(p *circuit.Placement, st *fwdState) {
	nd := len(m.n.Devices)
	var cx, cy float64
	for i := 0; i < nd; i++ {
		cx += p.X[i]
		cy += p.Y[i]
	}
	cx /= float64(nd)
	cy /= float64(nd)
	ensureMat(&st.x, nd, featDim)
	for i := 0; i < nd; i++ {
		st.x[i][0] = (p.X[i] - cx) / m.scale
		st.x[i][1] = (p.Y[i] - cy) / m.scale
		st.x[i][2] = 0 // netlen, accumulated below
		st.x[i][3] = 0 // mismatch, accumulated below
		copy(st.x[i][4:], m.feat[i])
	}
	// Incident-net length feature with the bounding pins recorded for the
	// backward pass.
	if len(st.extremes) != len(m.n.Nets) {
		st.extremes = make([]netExtreme, len(m.n.Nets))
	}
	for e := range m.n.Nets {
		net := &m.n.Nets[e]
		if len(net.Pins) == 0 {
			continue
		}
		pt := m.n.PinPos(p, net.Pins[0])
		ex := netExtreme{
			minX: net.Pins[0].Device, maxX: net.Pins[0].Device,
			minY: net.Pins[0].Device, maxY: net.Pins[0].Device,
		}
		minX, maxX, minY, maxY := pt.X, pt.X, pt.Y, pt.Y
		for _, pr := range net.Pins[1:] {
			pt = m.n.PinPos(p, pr)
			if pt.X < minX {
				minX, ex.minX = pt.X, pr.Device
			}
			if pt.X > maxX {
				maxX, ex.maxX = pt.X, pr.Device
			}
			if pt.Y < minY {
				minY, ex.minY = pt.Y, pr.Device
			}
			if pt.Y > maxY {
				maxY, ex.maxY = pt.Y, pr.Device
			}
		}
		st.extremes[e] = ex
		if len(st.netLen) != len(m.n.Nets) {
			st.netLen = make([]float64, len(m.n.Nets))
		}
		st.netLen[e] = (maxX - minX) + (maxY - minY)
		// Unweighted: placement-objective net weights must not hide a
		// net's physical length from the model — which nets matter for
		// performance is exactly what training determines.
		length := st.netLen[e] / m.scale
		touched := map[int]bool{}
		for _, pr := range net.Pins {
			if !touched[pr.Device] {
				touched[pr.Device] = true
				st.x[pr.Device][2] += length
			}
		}
	}
	for _, pr := range m.matched {
		mm := math.Abs(st.netLen[pr[0]]-st.netLen[pr[1]]) / m.scale
		touched := map[int]bool{}
		for _, e := range pr[:] {
			for _, pin := range m.n.Nets[e].Pins {
				if !touched[pin.Device] {
					touched[pin.Device] = true
					st.x[pin.Device][3] += mm
				}
			}
		}
	}
}

func ensureMat(mat *[][]float64, rows, cols int) {
	if len(*mat) != rows {
		*mat = make([][]float64, rows)
		for i := range *mat {
			(*mat)[i] = make([]float64, cols)
		}
		return
	}
	for i := range *mat {
		if len((*mat)[i]) != cols {
			(*mat)[i] = make([]float64, cols)
		}
	}
}

// neighborMean fills dst[i] = mean over adj[i] of src rows (zero when no
// neighbors).
func (m *Model) neighborMean(src [][]float64, dst *[][]float64, cols int) {
	nd := len(m.adj)
	ensureMat(dst, nd, cols)
	for i := 0; i < nd; i++ {
		row := (*dst)[i]
		for c := 0; c < cols; c++ {
			row[c] = 0
		}
		for _, j := range m.adj[i] {
			for c := 0; c < cols; c++ {
				row[c] += src[j][c]
			}
		}
		for c := 0; c < cols; c++ {
			row[c] *= m.invD[i]
		}
	}
}

// forward runs the network, storing activations in st.
func (m *Model) forward(p *circuit.Placement, st *fwdState) float64 {
	nd := len(m.n.Devices)
	m.features(p, st)
	m.neighborMean(st.x, &st.mx, featDim)

	ensureMat(&st.pre1, nd, hidden)
	ensureMat(&st.h1, nd, hidden)
	for i := 0; i < nd; i++ {
		for h := 0; h < hidden; h++ {
			s := m.b1[h]
			wRow := m.w1[h*featDim : (h+1)*featDim]
			uRow := m.u1[h*featDim : (h+1)*featDim]
			for c := 0; c < featDim; c++ {
				s += wRow[c]*st.x[i][c] + uRow[c]*st.mx[i][c]
			}
			st.pre1[i][h] = s
			st.h1[i][h] = relu(s)
		}
	}
	m.neighborMean(st.h1, &st.mh1, hidden)

	ensureMat(&st.pre2, nd, hidden)
	ensureMat(&st.h2, nd, hidden)
	for i := 0; i < nd; i++ {
		for h := 0; h < hidden; h++ {
			s := m.b2[h]
			wRow := m.w2[h*hidden : (h+1)*hidden]
			uRow := m.u2[h*hidden : (h+1)*hidden]
			for c := 0; c < hidden; c++ {
				s += wRow[c]*st.h1[i][c] + uRow[c]*st.mh1[i][c]
			}
			st.pre2[i][h] = s
			st.h2[i][h] = relu(s)
		}
	}

	// Readout: mean ‖ max.
	if len(st.g) != 2*hidden {
		st.g = make([]float64, 2*hidden)
		st.argmax = make([]int, hidden)
	}
	for h := 0; h < hidden; h++ {
		var mean float64
		best, bestI := math.Inf(-1), 0
		for i := 0; i < nd; i++ {
			v := st.h2[i][h]
			mean += v
			if v > best {
				best, bestI = v, i
			}
		}
		st.g[h] = mean / float64(nd)
		st.g[hidden+h] = best
		st.argmax[h] = bestI
	}

	if len(st.z) != headDim {
		st.z = make([]float64, headDim)
		st.pre3 = make([]float64, headDim)
	}
	for h := 0; h < headDim; h++ {
		s := m.b3[h]
		row := m.w3[h*2*hidden : (h+1)*2*hidden]
		for c := 0; c < 2*hidden; c++ {
			s += row[c] * st.g[c]
		}
		st.pre3[h] = s
		st.z[h] = relu(s)
	}
	s := m.b4[0]
	for h := 0; h < headDim; h++ {
		s += m.w4[h] * st.z[h]
	}
	st.s = s
	st.out = sigmoid(s)
	return st.out
}

func relu(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// grads mirrors params for accumulation.
type grads struct{ params }

func newGrads() *grads {
	g := &grads{}
	g.w1 = make([]float64, hidden*featDim)
	g.u1 = make([]float64, hidden*featDim)
	g.b1 = make([]float64, hidden)
	g.w2 = make([]float64, hidden*hidden)
	g.u2 = make([]float64, hidden*hidden)
	g.b2 = make([]float64, hidden)
	g.w3 = make([]float64, headDim*2*hidden)
	g.b3 = make([]float64, headDim)
	g.w4 = make([]float64, headDim)
	g.b4 = make([]float64, 1)
	return g
}

func (g *grads) zero() {
	for _, v := range g.vecs() {
		for i := range v {
			v[i] = 0
		}
	}
}

// backward propagates dL/dout through the stored forward state. When pg is
// non-nil, parameter gradients accumulate into it. When gx/gy are non-nil,
// coordinate gradients dL/d(x_i, y_i) accumulate into them.
func (m *Model) backward(st *fwdState, dOut float64, pg *grads, gx, gy []float64) {
	nd := len(m.n.Devices)
	ds := dOut * st.out * (1 - st.out)

	dz := make([]float64, headDim)
	for h := 0; h < headDim; h++ {
		if st.pre3[h] > 0 {
			dz[h] = ds * m.w4[h]
		}
		if pg != nil {
			pg.w4[h] += ds * st.z[h]
		}
	}
	if pg != nil {
		pg.b4[0] += ds
	}
	dg := make([]float64, 2*hidden)
	for h := 0; h < headDim; h++ {
		if dz[h] == 0 {
			continue
		}
		row := m.w3[h*2*hidden : (h+1)*2*hidden]
		for c := 0; c < 2*hidden; c++ {
			dg[c] += dz[h] * row[c]
			if pg != nil {
				pg.w3[h*2*hidden+c] += dz[h] * st.g[c]
			}
		}
		if pg != nil {
			pg.b3[h] += dz[h]
		}
	}

	// Through readout to dH2.
	dh2 := make([][]float64, nd)
	for i := range dh2 {
		dh2[i] = make([]float64, hidden)
	}
	for h := 0; h < hidden; h++ {
		mShare := dg[h] / float64(nd)
		for i := 0; i < nd; i++ {
			dh2[i][h] += mShare
		}
		dh2[st.argmax[h]][h] += dg[hidden+h]
	}

	// Layer 2 backward.
	dh1 := make([][]float64, nd)
	dmh1 := make([][]float64, nd)
	for i := range dh1 {
		dh1[i] = make([]float64, hidden)
		dmh1[i] = make([]float64, hidden)
	}
	for i := 0; i < nd; i++ {
		for h := 0; h < hidden; h++ {
			if st.pre2[i][h] <= 0 || dh2[i][h] == 0 {
				continue
			}
			d := dh2[i][h]
			wRow := m.w2[h*hidden : (h+1)*hidden]
			uRow := m.u2[h*hidden : (h+1)*hidden]
			for c := 0; c < hidden; c++ {
				dh1[i][c] += d * wRow[c]
				dmh1[i][c] += d * uRow[c]
				if pg != nil {
					pg.w2[h*hidden+c] += d * st.h1[i][c]
					pg.u2[h*hidden+c] += d * st.mh1[i][c]
				}
			}
			if pg != nil {
				pg.b2[h] += d
			}
		}
	}
	// dH1 += Aᵀ·dMH1 (mean aggregation transpose).
	for i := 0; i < nd; i++ {
		for _, j := range m.adj[i] {
			for c := 0; c < hidden; c++ {
				dh1[j][c] += dmh1[i][c] * m.invD[i]
			}
		}
	}

	// Layer 1 backward.
	dx := make([][]float64, nd)
	dmx := make([][]float64, nd)
	for i := range dx {
		dx[i] = make([]float64, featDim)
		dmx[i] = make([]float64, featDim)
	}
	for i := 0; i < nd; i++ {
		for h := 0; h < hidden; h++ {
			if st.pre1[i][h] <= 0 || dh1[i][h] == 0 {
				continue
			}
			d := dh1[i][h]
			wRow := m.w1[h*featDim : (h+1)*featDim]
			uRow := m.u1[h*featDim : (h+1)*featDim]
			for c := 0; c < featDim; c++ {
				dx[i][c] += d * wRow[c]
				dmx[i][c] += d * uRow[c]
				if pg != nil {
					pg.w1[h*featDim+c] += d * st.x[i][c]
					pg.u1[h*featDim+c] += d * st.mx[i][c]
				}
			}
			if pg != nil {
				pg.b1[h] += d
			}
		}
	}
	for i := 0; i < nd; i++ {
		for _, j := range m.adj[i] {
			for c := 0; c < featDim; c++ {
				dx[j][c] += dmx[i][c] * m.invD[i]
			}
		}
	}

	if gx != nil && gy != nil {
		// Chain through centering and scaling: x̃_i = (x_i − mean)/scale.
		var sumX, sumY float64
		for i := 0; i < nd; i++ {
			sumX += dx[i][0]
			sumY += dx[i][1]
		}
		for i := 0; i < nd; i++ {
			gx[i] += (dx[i][0] - sumX/float64(nd)) / m.scale
			gy[i] += (dx[i][1] - sumY/float64(nd)) / m.scale
		}
		// Chain the incident-net-length feature: each net's HPWL affects
		// the netlen feature of every device on the net, and is itself a
		// (sub)differentiable function of the bounding pins' coordinates.
		netSens := make([]float64, len(m.n.Nets))
		for e := range m.n.Nets {
			net := &m.n.Nets[e]
			if len(net.Pins) == 0 {
				continue
			}
			var sens float64
			touched := map[int]bool{}
			for _, pr := range net.Pins {
				if !touched[pr.Device] {
					touched[pr.Device] = true
					sens += dx[pr.Device][2]
				}
			}
			netSens[e] += sens
		}
		// Mismatch feature: |L_a − L_b| distributes ±sign sensitivity onto
		// the two nets' lengths.
		for _, pr := range m.matched {
			var sens float64
			touched := map[int]bool{}
			for _, e := range pr[:] {
				for _, pin := range m.n.Nets[e].Pins {
					if !touched[pin.Device] {
						touched[pin.Device] = true
						sens += dx[pin.Device][3]
					}
				}
			}
			if sens == 0 {
				continue
			}
			sign := 1.0
			if st.netLen[pr[0]] < st.netLen[pr[1]] {
				sign = -1
			}
			netSens[pr[0]] += sens * sign
			netSens[pr[1]] -= sens * sign
		}
		for e, sens := range netSens {
			if sens == 0 {
				continue
			}
			g := sens / m.scale
			ex := st.extremes[e]
			gx[ex.maxX] += g
			gx[ex.minX] -= g
			gy[ex.maxY] += g
			gy[ex.minY] -= g
		}
	}
}

// Prob returns Φ(G): the probability that performance is unsatisfactory at
// placement p. Implements the anneal.PerfModel interface.
func (m *Model) Prob(n *circuit.Netlist, p *circuit.Placement) float64 {
	if n != m.n {
		panic("gnn: model evaluated on a different netlist")
	}
	return m.forward(p, &m.scratch)
}

// ProbGrad returns Φ and accumulates ∂Φ/∂(x_i, y_i) into gx/gy — the
// gradient ePlace-AP feeds to its Nesterov solver.
func (m *Model) ProbGrad(p *circuit.Placement, gx, gy []float64) float64 {
	out := m.forward(p, &m.scratch)
	m.backward(&m.scratch, 1, nil, gx, gy)
	return out
}

// scratchPlacement returns a placement sized for the model's netlist.
func (m *Model) scratchPlacement() *circuit.Placement {
	return circuit.NewPlacement(m.n)
}

// String summarizes the model.
func (m *Model) String() string {
	return fmt.Sprintf("gnn.Model{devices: %d, params: %d}", len(m.n.Devices), m.numParams())
}
