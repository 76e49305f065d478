package nn

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestZooValidates(t *testing.T) {
	for _, name := range Names() {
		n, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("NoSuchNet"); err == nil {
		t.Fatal("expected error for unknown network")
	}
}

func TestByNameCached(t *testing.T) {
	a := MustByName("AlexNet")
	b := MustByName("AlexNet")
	if a != b {
		t.Error("ByName should return the shared cached instance")
	}
}

func TestEvaluationSetSize(t *testing.T) {
	nets := EvaluationSet()
	if len(nets) != 10 {
		t.Fatalf("evaluation set has %d networks, want 10", len(nets))
	}
	if nets[0].Name != "CaffeNet" || nets[9].Name != "VGG19" {
		t.Errorf("unexpected order: %s .. %s", nets[0].Name, nets[9].Name)
	}
}

// Published FLOP counts (multiply+add) for batch 1, within loose tolerance:
// the zoo approximates asymmetric factorizations but totals must land in the
// right regime for the scheduler's relative decisions to be meaningful.
func TestFLOPsSanity(t *testing.T) {
	cases := []struct {
		name    string
		gflops  float64
		tolFrac float64
	}{
		{"AlexNet", 2.3, 0.3}, // single-stream variant (no grouped convs)
		{"VGG19", 39.0, 0.25},
		{"VGG16", 31.0, 0.25},
		{"GoogleNet", 3.0, 0.5},
		{"ResNet18", 3.6, 0.35},
		{"ResNet50", 7.7, 0.35},
		{"ResNet101", 15.2, 0.35},
		{"ResNet152", 22.6, 0.35},
		{"MobileNet", 1.1, 0.5},
		{"DenseNet", 5.7, 0.5},
		{"ResNet34", 7.3, 0.35},
		{"VGG13", 22.6, 0.25},
		{"SqueezeNet", 0.7, 0.6},
		{"MobileNetV2", 0.6, 0.6},
	}
	for _, c := range cases {
		n := MustByName(c.name)
		got := n.FLOPs() / 1e9
		if got < c.gflops*(1-c.tolFrac) || got > c.gflops*(1+c.tolFrac) {
			t.Errorf("%s: %.2f GFLOPs, want %.2f +/- %.0f%%", c.name, got, c.gflops, c.tolFrac*100)
		}
	}
}

func TestWeightBytesSanity(t *testing.T) {
	// VGG19 has ~144M parameters; at 2 bytes/elem that is ~288 MB.
	vgg := MustByName("VGG19")
	mb := float64(vgg.WeightBytes()) / (1 << 20)
	if mb < 200 || mb > 350 {
		t.Errorf("VGG19 weights = %.0f MB, want roughly 288 MB", mb)
	}
	// ResNet18 ~11.7M params -> ~23 MB.
	r18 := MustByName("ResNet18")
	mb = float64(r18.WeightBytes()) / (1 << 20)
	if mb < 15 || mb > 35 {
		t.Errorf("ResNet18 weights = %.0f MB, want roughly 23 MB", mb)
	}
}

func TestLayerFLOPsConv(t *testing.T) {
	l := Layer{Type: Conv, In: Dims{56, 56, 64}, Out: Dims{56, 56, 128}, Kernel: 3, Stride: 1}
	want := 2.0 * 56 * 56 * 128 * 3 * 3 * 64
	if got := l.FLOPs(); got != want {
		t.Errorf("conv FLOPs = %g, want %g", got, want)
	}
}

func TestLayerFLOPsFC(t *testing.T) {
	l := Layer{Type: FC, In: Dims{1, 1, 4096}, Out: Dims{1, 1, 1000}}
	want := 2.0 * 4096 * 1000
	if got := l.FLOPs(); got != want {
		t.Errorf("fc FLOPs = %g, want %g", got, want)
	}
}

func TestLayerBytes(t *testing.T) {
	l := Layer{Type: Conv, In: Dims{10, 10, 4}, Out: Dims{10, 10, 8}, Kernel: 3, Stride: 1}
	if got, want := l.InputBytes(), int64(10*10*4*ElemBytes); got != want {
		t.Errorf("InputBytes = %d, want %d", got, want)
	}
	if got, want := l.OutputBytes(), int64(10*10*8*ElemBytes); got != want {
		t.Errorf("OutputBytes = %d, want %d", got, want)
	}
	if got, want := l.WeightBytes(), int64(3*3*4*8*ElemBytes); got != want {
		t.Errorf("WeightBytes = %d, want %d", got, want)
	}
}

func TestGroupsCoverNetworkExactly(t *testing.T) {
	for _, name := range Names() {
		n := MustByName(name)
		for _, maxG := range []int{1, 4, 12, 1000} {
			groups := Groups(n, maxG)
			if len(groups) == 0 {
				t.Fatalf("%s maxG=%d: no groups", name, maxG)
			}
			if len(groups) > maxG {
				t.Errorf("%s: %d groups exceeds cap %d", name, len(groups), maxG)
			}
			if groups[0].Start != 0 {
				t.Errorf("%s: first group starts at %d", name, groups[0].Start)
			}
			if groups[len(groups)-1].End != len(n.Layers)-1 {
				t.Errorf("%s: last group ends at %d, want %d", name, groups[len(groups)-1].End, len(n.Layers)-1)
			}
			for i := 1; i < len(groups); i++ {
				if groups[i].Start != groups[i-1].End+1 {
					t.Errorf("%s: gap between group %d and %d", name, i-1, i)
				}
				if groups[i].Index != i {
					t.Errorf("%s: group %d has Index %d", name, i, groups[i].Index)
				}
			}
		}
	}
}

func TestGroupsPreserveFLOPs(t *testing.T) {
	for _, name := range Names() {
		n := MustByName(name)
		groups := Groups(n, DefaultMaxGroups)
		var sum float64
		for _, g := range groups {
			sum += g.FLOPs()
		}
		total := n.FLOPs()
		if diff := sum - total; diff > 1 || diff < -1 {
			t.Errorf("%s: group FLOPs %g != network FLOPs %g", name, sum, total)
		}
	}
}

func TestGroupsRespectTransitionSafety(t *testing.T) {
	n := MustByName("GoogleNet")
	for _, g := range Groups(n, DefaultMaxGroups) {
		if !n.Layers[g.End].TransitionSafe {
			t.Errorf("group %v ends at non-transition-safe layer %s", g, n.Layers[g.End].Name)
		}
	}
}

func TestGoogleNetGroupCount(t *testing.T) {
	// Table 2 characterizes GoogleNet in 10 groups; our default grouping must
	// land in the same low-double-digit regime.
	groups := Groups(MustByName("GoogleNet"), DefaultMaxGroups)
	if len(groups) < 8 || len(groups) > 12 {
		t.Errorf("GoogleNet has %d groups, want 8..12", len(groups))
	}
}

func TestDimsElems(t *testing.T) {
	if got := (Dims{2, 3, 4}).Elems(); got != 24 {
		t.Errorf("Elems = %d, want 24", got)
	}
}

// Property: grouping never loses or duplicates a layer for any cap.
func TestGroupsPartitionProperty(t *testing.T) {
	nets := EvaluationSet()
	f := func(netIdx uint8, cap uint8) bool {
		n := nets[int(netIdx)%len(nets)]
		maxG := int(cap)%30 + 1
		groups := Groups(n, maxG)
		covered := 0
		for _, g := range groups {
			if g.End < g.Start {
				return false
			}
			covered += g.End - g.Start + 1
		}
		return covered == len(n.Layers)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsBadNetworks(t *testing.T) {
	bad := &Network{Name: "", Layers: []Layer{{Type: Input, In: Dims{1, 1, 1}, Out: Dims{1, 1, 1}}}}
	if err := bad.Validate(); err == nil {
		t.Error("empty name should fail validation")
	}
	bad = &Network{Name: "x"}
	if err := bad.Validate(); err == nil {
		t.Error("no layers should fail validation")
	}
	bad = &Network{Name: "x", Layers: []Layer{{Type: ReLU, In: Dims{2, 2, 2}, Out: Dims{2, 2, 3}, TransitionSafe: true}}}
	if err := bad.Validate(); err == nil {
		t.Error("shape-changing ReLU should fail validation")
	}
	bad = &Network{Name: "x", Layers: []Layer{{Type: Conv, In: Dims{2, 2, 2}, Out: Dims{2, 2, 3}, TransitionSafe: true}}}
	if err := bad.Validate(); err == nil {
		t.Error("conv without kernel should fail validation")
	}
}

func TestLayerTypeString(t *testing.T) {
	if Conv.String() != "Conv" {
		t.Errorf("Conv.String() = %q", Conv.String())
	}
	if LayerType(999).String() == "" {
		t.Error("unknown layer type should still render")
	}
}

// quadraticGroups is the greedy merge of Groups re-summing every group's
// FLOPs on every round: the oracle TestGroupsMatchQuadraticMerge checks
// Groups against.
func quadraticGroups(n *Network, maxGroups int) []Group {
	var groups []Group
	start := 0
	for i, l := range n.Layers {
		if l.TransitionSafe {
			groups = append(groups, Group{Net: n, Start: start, End: i})
			start = i + 1
		}
	}
	if start < len(n.Layers) {
		groups = append(groups, Group{Net: n, Start: start, End: len(n.Layers) - 1})
	}
	for len(groups) > maxGroups {
		worst, worstScore := -1, -1.0
		for i := 0; i < len(groups)-1; i++ {
			cross := float64(groups[i].OutputBytes())
			work := groups[i].FLOPs() + groups[i+1].FLOPs()
			score := cross / (1 + work)
			if score > worstScore {
				worst, worstScore = i, score
			}
		}
		merged := Group{Net: n, Start: groups[worst].Start, End: groups[worst+1].End}
		groups = append(groups[:worst], append([]Group{merged}, groups[worst+2:]...)...)
	}
	for i := range groups {
		groups[i].Index = i
	}
	return groups
}

// TestGroupsMatchQuadraticMerge: keeping each group's FLOPs across merge
// rounds cuts every zoo network exactly where re-summing every round does,
// at every cap from 1 to one past the initial group count.
func TestGroupsMatchQuadraticMerge(t *testing.T) {
	for _, name := range Names() {
		n := MustByName(name)
		initial := len(quadraticGroups(n, len(n.Layers)))
		for limit := 1; limit <= initial+1; limit++ {
			if got, want := Groups(n, limit), quadraticGroups(n, limit); !slices.Equal(got, want) {
				t.Errorf("%s cap %d: Groups = %v, want %v", name, limit, got, want)
			}
		}
	}
}
