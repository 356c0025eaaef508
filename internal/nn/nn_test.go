package nn

import (
	"strings"
	"testing"

	"twolm/internal/tensor"
)

// tinyNet builds a small conv net training program for fast tests.
func tinyNet(t *testing.T, batch int) *Program {
	t.Helper()
	b := NewBuilder("tiny", batch)
	x := b.Input(8, 8, 3)
	x = b.Conv(x, 3, 1, 1, 4)
	x = b.BatchNorm(x)
	x = b.ReLU(x)
	x = b.MaxPool(x, 2, 2, 0)
	x = b.GlobalAvgPool(x)
	logits := b.FC(x, 10)
	p, err := b.Train(logits)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTinyNetValidates(t *testing.T) {
	p := tinyNet(t, 2)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.ForwardKernels == 0 || p.ForwardKernels >= len(p.Kernels) {
		t.Errorf("forward kernels = %d of %d", p.ForwardKernels, len(p.Kernels))
	}
}

func TestShapesPropagate(t *testing.T) {
	b := NewBuilder("shapes", 4)
	x := b.Input(32, 32, 3)
	if got := b.shape(x); got.Elems() != 4*32*32*3 {
		t.Fatalf("input shape %v", got)
	}
	c := b.Conv(x, 3, 2, 1, 16)
	if got := b.shape(c); got[1] != 16 || got[2] != 16 || got[3] != 16 {
		t.Errorf("stride-2 conv shape %v, want [4x16x16x16]", got)
	}
	p := b.MaxPool(c, 2, 2, 0)
	if got := b.shape(p); got[1] != 8 || got[3] != 16 {
		t.Errorf("pool shape %v", got)
	}
}

func TestConcatShapes(t *testing.T) {
	b := NewBuilder("concat", 2)
	x := b.Input(8, 8, 4)
	y := b.Conv(x, 3, 1, 1, 6)
	z := b.Concat(x, y)
	if got := b.shape(z); got[3] != 10 {
		t.Errorf("concat channels = %d, want 10", got[3])
	}
}

func TestConcatMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched Concat did not panic")
		}
	}()
	b := NewBuilder("bad", 2)
	x := b.Input(8, 8, 4)
	y := b.Conv(x, 3, 2, 1, 4) // different spatial size
	b.Concat(x, y)
}

// TestBackwardKeepsActivationsLive: forward activations must be read
// by backward kernels (the liveness the paper's Figure 5d shows).
func TestBackwardKeepsActivationsLive(t *testing.T) {
	p := tinyNet(t, 2)
	// Find the conv input activation and check a backward kernel reads
	// it (ConvBpropFilter needs the saved input).
	convIdx := -1
	for ki, k := range p.Kernels {
		if strings.HasPrefix(k.Name, "Conv3x3") && ki < p.ForwardKernels {
			convIdx = ki
			break
		}
	}
	if convIdx < 0 {
		t.Fatal("no forward conv kernel found")
	}
	input := p.Kernels[convIdx].Reads[0]
	readInBackward := false
	for ki := p.ForwardKernels; ki < len(p.Kernels); ki++ {
		for _, r := range p.Kernels[ki].Reads {
			if r == input {
				readInBackward = true
			}
		}
	}
	if !readInBackward {
		t.Error("conv input activation is not re-read in the backward pass")
	}
}

// TestGradientAccumulation: a tensor consumed by two ops must receive
// an accumulation kernel.
func TestGradientAccumulation(t *testing.T) {
	b := NewBuilder("fanout", 2)
	x := b.Input(8, 8, 4)
	y1 := b.Conv(x, 3, 1, 1, 4)
	y2 := b.Conv(x, 3, 1, 1, 4)
	s := b.Add(y1, y2)
	s = b.GlobalAvgPool(s)
	logits := b.FC(s, 10)
	p, err := b.Train(logits)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range p.Kernels {
		if k.Name == "GradAccum" {
			found = true
		}
	}
	if !found {
		t.Error("fan-out input did not produce a GradAccum kernel")
	}
}

func TestValidateCatchesReadBeforeWrite(t *testing.T) {
	p := &Program{
		Tensors: []TensorDef{
			{ID: 0, Name: "a", Kind: Activation, Shape: tensor.Shape{1}},
			{ID: 1, Name: "b", Kind: Activation, Shape: tensor.Shape{1}},
		},
		Kernels: []Kernel{{Name: "k", Reads: []int{0}, Writes: []int{1}}},
	}
	if err := p.Validate(); err == nil {
		t.Error("read-before-write accepted")
	}
}

func TestValidateCatchesEmptyWrites(t *testing.T) {
	p := &Program{
		Tensors: []TensorDef{{ID: 0, Name: "a", Kind: Weight, Shape: tensor.Shape{1}}},
		Kernels: []Kernel{{Name: "k", Reads: []int{0}}},
	}
	if err := p.Validate(); err == nil {
		t.Error("kernel with no writes accepted")
	}
}

func TestTensorKindString(t *testing.T) {
	if Activation.String() != "activation" || Weight.String() != "weight" || Gradient.String() != "gradient" {
		t.Error("unexpected TensorKind strings")
	}
}

// TestFootprintScalesWithBatch: activations scale linearly, weights
// don't.
func TestFootprintScalesWithBatch(t *testing.T) {
	p1 := tinyNet(t, 2)
	p2 := tinyNet(t, 4)
	// Weight gradients don't scale with batch, so the ratio is just
	// under 2.
	ratio := float64(p2.ActivationBytes()) / float64(p1.ActivationBytes())
	if ratio < 1.85 || ratio > 2.0 {
		t.Errorf("activation bytes ratio = %.3f, want ~2 (batch doubled)", ratio)
	}
	if p1.WeightBytes() != p2.WeightBytes() {
		t.Error("weight bytes changed with batch")
	}
}

// --- the three study networks ------------------------------------------

func TestDenseNet264Structure(t *testing.T) {
	p, err := DenseNet264(8)
	if err != nil {
		t.Fatal(err)
	}
	// ~33M parameters (the published DenseNet-264 size), within 15%.
	params := p.WeightBytes() / 4
	if params < 28e6 || params > 40e6 {
		t.Errorf("DenseNet-264 parameters = %dM, want ~33M", params/1e6)
	}
	if p.Name != "densenet-264" {
		t.Errorf("name = %q", p.Name)
	}
	// The dense-block kernel chain must include Concat.
	concats := 0
	for _, k := range p.Kernels[:p.ForwardKernels] {
		if k.Name == "Concat" {
			concats++
		}
	}
	if concats != 6+12+64+48+1 { // one per dense layer (+1 none: stem has no concat)
		// 130 dense layers => 130 concats.
		if concats != 130 {
			t.Errorf("forward Concat kernels = %d, want 130", concats)
		}
	}
}

func TestResNet200Structure(t *testing.T) {
	p, err := ResNet200(8)
	if err != nil {
		t.Fatal(err)
	}
	// ~64M parameters.
	params := p.WeightBytes() / 4
	if params < 55e6 || params > 75e6 {
		t.Errorf("ResNet-200 parameters = %dM, want ~64M", params/1e6)
	}
	adds := 0
	for _, k := range p.Kernels[:p.ForwardKernels] {
		if k.Name == "Add" {
			adds++
		}
	}
	if adds != 3+24+36+3 {
		t.Errorf("residual adds = %d, want 66", adds)
	}
}

func TestInceptionV4Structure(t *testing.T) {
	p, err := InceptionV4(8)
	if err != nil {
		t.Fatal(err)
	}
	params := p.WeightBytes() / 4
	// Inception-v4 is ~43M; our 3x3-equivalent factorization lands in
	// the same range.
	if params < 30e6 || params > 80e6 {
		t.Errorf("Inception-v4 parameters = %dM, want ~43M", params/1e6)
	}
}

// TestNetworksBatchFLOPs: training FLOPs per image should be ~3x the
// published forward FLOPs (~6 GF DenseNet-264, ~15 GF ResNet-200).
func TestNetworksBatchFLOPs(t *testing.T) {
	p, err := DenseNet264(64)
	if err != nil {
		t.Fatal(err)
	}
	perImage := float64(p.TotalFLOPs()) / 64 / 1e9
	if perImage < 20 || perImage > 60 {
		t.Errorf("DenseNet-264 training GFLOPs/image = %.1f, want ~36", perImage)
	}
}
