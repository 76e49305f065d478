package nn

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// zoo maps canonical network names to constructors. Construction is cached:
// networks are immutable once built and callers share them.
var zoo = map[string]func() *Network{
	"AlexNet":      AlexNet,
	"CaffeNet":     CaffeNet,
	"DenseNet":     DenseNet,
	"GoogleNet":    GoogleNet,
	"Inc-res-v2":   IncResV2,
	"Inception":    Inception,
	"MobileNet":    MobileNet,
	"ResNet18":     ResNet18,
	"ResNet34":     ResNet34,
	"ResNet50":     ResNet50,
	"ResNet101":    ResNet101,
	"ResNet152":    ResNet152,
	"SqueezeNet":   SqueezeNet,
	"MobileNetV2":  MobileNetV2,
	"VGG13":        VGG13,
	"VGG16":        VGG16,
	"VGG19":        VGG19,
	"FCN-ResNet18": FCNResNet18,
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*Network{}
)

// names lists the zoo in sorted order and index maps each name to its
// position there. Both are built once at init and only read afterwards,
// so Index and Name take no lock.
var (
	names = sortedZoo()
	index = indexOf(names)
)

func sortedZoo() []string {
	out := make([]string, 0, len(zoo))
	for name := range zoo {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func indexOf(names []string) map[string]int {
	m := make(map[string]int, len(names))
	for i, name := range names {
		m[name] = i
	}
	return m
}

// Index returns a zoo network's index: its position in Names(). Index
// order is the names' byte order, so sorting networks by index sorts them
// by name. ok is false for a name outside the zoo.
func Index(name string) (i int, ok bool) {
	i, ok = index[name]
	return i, ok
}

// Name returns the name of the zoo network with index i.
func Name(i int) string { return names[i] }

// Count returns the number of zoo networks: indices run from 0 to
// Count()-1.
func Count() int { return len(names) }

// ByName returns the named network from the zoo, or an error listing valid
// names. Returned networks are shared and must not be mutated.
func ByName(name string) (*Network, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if n, ok := cache[name]; ok {
		return n, nil
	}
	ctor, ok := zoo[name]
	if !ok {
		return nil, fmt.Errorf("nn: unknown network %q (known: %v)", name, Names())
	}
	n := ctor()
	cache[name] = n
	return n, nil
}

// MustByName is ByName for static names; it panics on unknown names.
func MustByName(name string) *Network {
	n, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return n
}

// Names returns the sorted list of zoo network names, a fresh copy per
// call.
func Names() []string { return slices.Clone(names) }

// EvaluationSet returns the ten networks used in the paper's pairwise
// evaluation (Tables 5 and 8), in the paper's row order.
func EvaluationSet() []*Network {
	names := []string{
		"CaffeNet", "DenseNet", "GoogleNet", "Inc-res-v2", "Inception",
		"ResNet18", "ResNet50", "ResNet101", "ResNet152", "VGG19",
	}
	nets := make([]*Network, len(names))
	for i, name := range names {
		nets[i] = MustByName(name)
	}
	return nets
}
