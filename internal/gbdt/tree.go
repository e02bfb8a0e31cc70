// Package gbdt implements histogram-based gradient-boosted decision trees —
// the stand-in for XGBoost in the paper's benchmark framework (propensity
// discriminator and downstream-utility models). Trees are grown depth-wise
// on first/second-order gradients with L2 leaf regularisation, following the
// XGBoost objective.
package gbdt

import (
	"math"
	"sort"

	"silofuse/internal/tensor"
)

// TreeParams controls growth of a single regression tree.
type TreeParams struct {
	MaxDepth      int     // maximum tree depth (root = depth 0)
	MinChildCount int     // minimum samples per leaf
	Lambda        float64 // L2 regularisation on leaf weights
	Bins          int     // histogram bins per feature
	Gamma         float64 // minimum gain to accept a split
}

// DefaultTreeParams returns sensible defaults for tabular benchmarks.
func DefaultTreeParams() TreeParams {
	return TreeParams{MaxDepth: 4, MinChildCount: 5, Lambda: 1, Bins: 32, Gamma: 1e-6}
}

type node struct {
	feature   int
	threshold float64
	left      int
	right     int
	leaf      float64
	isLeaf    bool
}

// Tree is one fitted regression tree over gradient statistics.
type Tree struct {
	nodes []node
}

// binner holds per-feature histogram bin edges, computed once per dataset,
// and the scratch every tree grown on that dataset reuses: the histograms,
// the sample indexes being partitioned and the spill space of a partition.
type binner struct {
	edges [][]float64 // per feature, ascending candidate thresholds

	hg, hh []float64 // per-bin gradient and hessian sums, widest feature's length
	hc     []int     // per-bin sample counts
	work   []int     // one tree's sample indexes, partitioned in place per node
	spill  []int     // right-hand indexes during a partition
}

// newBinner computes up to bins-1 quantile-based candidate thresholds per
// feature.
func newBinner(x *tensor.Matrix, bins int) *binner {
	b := &binner{edges: make([][]float64, x.Cols)}
	col := make([]float64, x.Rows)
	nb := 1
	for f := 0; f < x.Cols; f++ {
		for i := range col {
			col[i] = x.At(i, f)
		}
		sort.Float64s(col)
		var edges []float64
		prev := math.NaN()
		for k := 1; k < bins; k++ {
			pos := k * (len(col) - 1) / bins
			v := col[pos]
			if v != prev { //silofuse:bitwise-ok deduplicate identical candidate bin edges
				edges = append(edges, v)
				prev = v
			}
		}
		b.edges[f] = edges
		nb = max(nb, len(edges)+1)
	}
	b.hg, b.hh, b.hc = make([]float64, nb), make([]float64, nb), make([]int, nb)
	return b
}

// buildTree grows one tree on samples idx using gradients g and hessians h.
// idx itself is left as it was.
func buildTree(x *tensor.Matrix, g, h []float64, idx []int, bn *binner, p TreeParams) *Tree {
	t := &Tree{}
	if cap(bn.work) < len(idx) {
		bn.work, bn.spill = make([]int, len(idx)), make([]int, len(idx))
	}
	work := bn.work[:len(idx)]
	copy(work, idx)
	t.grow(x, g, h, work, bn, p, 0)
	return t
}

// grow appends the subtree for idx and returns its node index. It reorders
// idx: the left child's samples come first, the right child's after them,
// each in the order they had in idx, so every sum runs in the same order as
// over freshly collected index lists.
func (t *Tree) grow(x *tensor.Matrix, g, h []float64, idx []int, bn *binner, p TreeParams, depth int) int {
	var sumG, sumH float64
	for _, i := range idx {
		sumG += g[i]
		sumH += h[i]
	}
	me := len(t.nodes)
	t.nodes = append(t.nodes, node{})

	makeLeaf := func() int {
		t.nodes[me] = node{isLeaf: true, leaf: -sumG / (sumH + p.Lambda)}
		return me
	}
	if depth >= p.MaxDepth || len(idx) < 2*p.MinChildCount {
		return makeLeaf()
	}

	bestGain := p.Gamma
	bestFeat := -1
	var bestThr float64
	parentScore := sumG * sumG / (sumH + p.Lambda)

	for f := 0; f < x.Cols; f++ {
		edges := bn.edges[f]
		if len(edges) == 0 {
			continue
		}
		// Histogram of gradient stats per bin: bin k collects samples with
		// value <= edges[k] (k < len(edges)); overflow bin holds the rest.
		nb := len(edges) + 1
		hg, hh, hc := bn.hg[:nb], bn.hh[:nb], bn.hc[:nb]
		clear(hg)
		clear(hh)
		clear(hc)
		for _, i := range idx {
			v := x.At(i, f)
			k := sort.SearchFloat64s(edges, v) // first edge >= v
			hg[k] += g[i]
			hh[k] += h[i]
			hc[k]++
		}
		var gl, hl float64
		cl := 0
		for k := 0; k < nb-1; k++ {
			gl += hg[k]
			hl += hh[k]
			cl += hc[k]
			cr := len(idx) - cl
			if cl < p.MinChildCount || cr < p.MinChildCount {
				continue
			}
			gr := sumG - gl
			hr := sumH - hl
			gain := gl*gl/(hl+p.Lambda) + gr*gr/(hr+p.Lambda) - parentScore
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThr = edges[k]
			}
		}
	}
	if bestFeat < 0 {
		return makeLeaf()
	}

	// Stable partition: left samples are compacted to the front, right ones
	// wait in spill and follow them.
	nl, nr := 0, 0
	for _, i := range idx {
		if x.At(i, bestFeat) <= bestThr {
			idx[nl] = i
			nl++
		} else {
			bn.spill[nr] = i
			nr++
		}
	}
	if nl == 0 || nr == 0 {
		return makeLeaf()
	}
	copy(idx[nl:], bn.spill[:nr])
	l := t.grow(x, g, h, idx[:nl], bn, p, depth+1)
	r := t.grow(x, g, h, idx[nl:], bn, p, depth+1)
	t.nodes[me] = node{feature: bestFeat, threshold: bestThr, left: l, right: r}
	return me
}

// predictRow evaluates the tree for one feature row.
func (t *Tree) predictRow(row []float64) float64 {
	n := 0
	for {
		nd := t.nodes[n]
		if nd.isLeaf {
			return nd.leaf
		}
		if row[nd.feature] <= nd.threshold {
			n = nd.left
		} else {
			n = nd.right
		}
	}
}
