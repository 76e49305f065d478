package nn

import (
	"fmt"
	"slices"
)

// builder accumulates layers while tracking the current tensor shape. The zoo
// constructors use it so every layer has consistent chained dimensions.
type builder struct {
	name   string
	cur    Dims
	layers []Layer
}

func newBuilder(name string, input Dims) *builder {
	b := &builder{name: name, cur: input}
	b.layers = append(b.layers, Layer{
		Name: "input", Type: Input, In: input, Out: input,
	})
	return b
}

func (b *builder) add(l Layer) {
	l.Name = fmt.Sprintf("%s_%d", l.Name, len(b.layers))
	b.layers = append(b.layers, l)
	b.cur = l.Out
}

func convOut(in Dims, outC, k, stride, pad int) Dims {
	h := (in.H+2*pad-k)/stride + 1
	w := (in.W+2*pad-k)/stride + 1
	return Dims{H: h, W: w, C: outC}
}

// conv appends Conv(+BatchNorm)(+ReLU). bn and relu are fused follow-ons;
// they are separate layers (the profiler sees them) but never transition
// safe, matching engine-level operator fusion.
func (b *builder) conv(name string, outC, k, stride, pad int, bn, relu bool) {
	out := convOut(b.cur, outC, k, stride, pad)
	b.add(Layer{Name: name, Type: Conv, In: b.cur, Out: out, Kernel: k, Stride: stride})
	if bn {
		b.add(Layer{Name: name + "_bn", Type: BatchNorm, In: b.cur, Out: b.cur})
	}
	if relu {
		b.add(Layer{Name: name + "_relu", Type: ReLU, In: b.cur, Out: b.cur})
	}
}

func (b *builder) dwconv(name string, k, stride, pad int) {
	out := convOut(b.cur, b.cur.C, k, stride, pad)
	b.add(Layer{Name: name, Type: DWConv, In: b.cur, Out: out, Kernel: k, Stride: stride})
	b.add(Layer{Name: name + "_bn", Type: BatchNorm, In: b.cur, Out: b.cur})
	b.add(Layer{Name: name + "_relu", Type: ReLU, In: b.cur, Out: b.cur})
}

func (b *builder) deconv(name string, outC, k, stride int) {
	out := Dims{H: b.cur.H * stride, W: b.cur.W * stride, C: outC}
	b.add(Layer{Name: name, Type: Deconv, In: b.cur, Out: out, Kernel: k, Stride: stride})
}

func (b *builder) maxpool(name string, k, stride, pad int) {
	out := convOut(b.cur, b.cur.C, k, stride, pad)
	b.add(Layer{Name: name, Type: MaxPool, In: b.cur, Out: out, Kernel: k, Stride: stride})
}

func (b *builder) avgpool(name string, k, stride, pad int) {
	out := convOut(b.cur, b.cur.C, k, stride, pad)
	b.add(Layer{Name: name, Type: AvgPool, In: b.cur, Out: out, Kernel: k, Stride: stride})
}

func (b *builder) globalpool(name string) {
	out := Dims{H: 1, W: 1, C: b.cur.C}
	b.add(Layer{Name: name, Type: GlobalAvgPool, In: b.cur, Out: out, Kernel: 0, Stride: 0})
}

func (b *builder) fc(name string, outN int, relu bool) {
	out := Dims{H: 1, W: 1, C: outN}
	in := b.cur
	b.add(Layer{Name: name, Type: FC, In: in, Out: out})
	if relu {
		b.add(Layer{Name: name + "_relu", Type: ReLU, In: b.cur, Out: b.cur})
	}
}

func (b *builder) lrn(name string) {
	b.add(Layer{Name: name, Type: LRN, In: b.cur, Out: b.cur})
}

func (b *builder) dropout(name string) {
	b.add(Layer{Name: name, Type: Dropout, In: b.cur, Out: b.cur})
}

func (b *builder) softmax(name string) {
	b.add(Layer{Name: name, Type: Softmax, In: b.cur, Out: b.cur})
}

func (b *builder) addResidual(name string) {
	b.add(Layer{Name: name, Type: Add, In: b.cur, Out: b.cur})
	b.add(Layer{Name: name + "_relu", Type: ReLU, In: b.cur, Out: b.cur})
}

// concat records the channel concatenation of parallel branches. The builder
// flattens branches sequentially; concat fixes up the resulting channel count.
func (b *builder) concat(name string, in Dims, outC int) {
	out := Dims{H: in.H, W: in.W, C: outC}
	b.add(Layer{Name: name, Type: Concat, In: in, Out: out})
}

// cut marks the most recent layer as a legal transition point.
func (b *builder) cut() {
	b.layers[len(b.layers)-1].TransitionSafe = true
}

func (b *builder) build() *Network {
	b.cut() // network end is always a legal boundary
	// The zoo keeps every network it builds; a copy of the layers drops
	// the spare capacity appending left, a third of the array.
	n := &Network{Name: b.name, Layers: slices.Clone(b.layers)}
	if err := n.Validate(); err != nil {
		panic(err) // zoo construction bug, not a runtime condition
	}
	return n
}
