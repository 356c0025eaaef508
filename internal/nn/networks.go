// Network builders for the three CNNs the paper trains (Section V):
// DenseNet 264, ResNet 200 and Inception v4. Structures follow the
// original papers closely enough to reproduce the memory phenomena the
// study depends on: DenseNet's concat-heavy dense blocks, ResNet's
// bottleneck residuals, and Inception's multi-branch modules.

package nn

import "fmt"

// DenseNet264 builds a training program for DenseNet-264 (growth rate
// 32, block configuration 6/12/64/48, bottleneck layers) at the given
// batch size over 224x224x3 inputs. The paper trains it at batch 3072
// for a ~688 GB footprint.
func DenseNet264(batch int) (*Program, error) {
	return DenseNet(batch, 32, []int{6, 12, 64, 48})
}

// DenseNet builds a DenseNet variant with the given growth rate and
// per-block layer counts.
func DenseNet(batch, growth int, blocks []int) (*Program, error) {
	b := NewBuilder(fmt.Sprintf("densenet-%d", denseNetDepth(blocks)), batch)
	x := b.Input(224, 224, 3)
	x = b.Conv(x, 7, 2, 3, 2*growth)
	x = b.BatchNorm(x)
	x = b.ReLU(x)
	x = b.MaxPool(x, 3, 2, 1)

	channels := 2 * growth
	for bi, layers := range blocks {
		// Dense block: each layer is Concat -> BN -> ReLU -> Conv1x1
		// -> BN -> ReLU -> Conv3x3, with its output concatenated onto
		// the running feature map (the paper's Figure 6 kernel chain).
		for l := 0; l < layers; l++ {
			y := b.BatchNorm(x)
			y = b.ReLU(y)
			y = b.Conv(y, 1, 1, 0, 4*growth) // bottleneck
			y = b.BatchNorm(y)
			y = b.ReLU(y)
			y = b.Conv(y, 3, 1, 1, growth)
			x = b.Concat(x, y)
			channels += growth
		}
		// Transition layer (except after the last block): BN, 1x1 conv
		// halving channels, 2x2 average pool.
		if bi != len(blocks)-1 {
			x = b.BatchNorm(x)
			x = b.ReLU(x)
			channels /= 2
			x = b.Conv(x, 1, 1, 0, channels)
			x = b.AvgPool(x, 2, 2, 0)
		}
	}
	x = b.BatchNorm(x)
	x = b.ReLU(x)
	x = b.GlobalAvgPool(x)
	logits := b.FC(x, 1000)
	return b.Train(logits)
}

func denseNetDepth(blocks []int) int {
	d := 4 // stem conv + transition convs + classifier, conventionally
	for _, l := range blocks {
		d += 2 * l
	}
	if d == 244 {
		return 264 // block config 6/12/64/48 is named DenseNet-264
	}
	return d
}

// ResNet200 builds a training program for ResNet-200 (bottleneck
// blocks, configuration 3/24/36/3) at the given batch size.
func ResNet200(batch int) (*Program, error) {
	return ResNet(batch, []int{3, 24, 36, 3})
}

// ResNet builds a bottleneck ResNet with the given stage depths.
func ResNet(batch int, stages []int) (*Program, error) {
	depth := 2
	for _, s := range stages {
		depth += 3 * s
	}
	b := NewBuilder(fmt.Sprintf("resnet-%d", depth), batch)
	x := b.Input(224, 224, 3)
	x = b.Conv(x, 7, 2, 3, 64)
	x = b.BatchNorm(x)
	x = b.ReLU(x)
	x = b.MaxPool(x, 3, 2, 1)

	width := 64
	for si, blocks := range stages {
		for l := 0; l < blocks; l++ {
			stride := 1
			if si > 0 && l == 0 {
				stride = 2
			}
			// Bottleneck: 1x1 reduce, 3x3, 1x1 expand (4x), residual.
			shortcut := x
			y := b.Conv(x, 1, stride, 0, width)
			y = b.BatchNorm(y)
			y = b.ReLU(y)
			y = b.Conv(y, 3, 1, 1, width)
			y = b.BatchNorm(y)
			y = b.ReLU(y)
			y = b.Conv(y, 1, 1, 0, 4*width)
			y = b.BatchNorm(y)
			if l == 0 {
				// Projection shortcut on the first block of each stage.
				shortcut = b.Conv(x, 1, stride, 0, 4*width)
				shortcut = b.BatchNorm(shortcut)
			}
			x = b.Add(y, shortcut)
			x = b.ReLU(x)
		}
		width *= 2
	}
	x = b.GlobalAvgPool(x)
	logits := b.FC(x, 1000)
	return b.Train(logits)
}

// InceptionV4 builds a training program for Inception-v4 (stem, 4x
// Inception-A, Reduction-A, 7x Inception-B, Reduction-B, 3x
// Inception-C) at the given batch size over 299x299x3 inputs.
func InceptionV4(batch int) (*Program, error) {
	b := NewBuilder("inception-v4", batch)
	x := b.Input(299, 299, 3)

	// Stem (simplified to the dominant path: the mixed stem branches
	// are folded into equivalent-width convolutions).
	x = b.Conv(x, 3, 2, 0, 32)
	x = b.BatchNorm(x)
	x = b.ReLU(x)
	x = b.Conv(x, 3, 1, 0, 32)
	x = b.BatchNorm(x)
	x = b.ReLU(x)
	x = b.Conv(x, 3, 1, 1, 64)
	x = b.BatchNorm(x)
	x = b.ReLU(x)
	pa := b.MaxPool(x, 3, 2, 0)
	pb := b.Conv(x, 3, 2, 0, 96)
	pb = b.BatchNorm(pb)
	pb = b.ReLU(pb)
	x = b.Concat(pa, pb)
	x = b.Conv(x, 3, 1, 0, 192)
	x = b.BatchNorm(x)
	x = b.ReLU(x)
	x = b.Conv(x, 3, 2, 0, 192)
	x = b.BatchNorm(x)
	x = b.ReLU(x)

	branchConvBN := func(x, k, stride, pad, outC int) int {
		y := b.Conv(x, k, stride, pad, outC)
		y = b.BatchNorm(y)
		return b.ReLU(y)
	}

	// 4x Inception-A.
	for i := 0; i < 4; i++ {
		b1 := branchConvBN(x, 1, 1, 0, 96)
		b2 := branchConvBN(x, 1, 1, 0, 64)
		b2 = branchConvBN(b2, 3, 1, 1, 96)
		b3 := branchConvBN(x, 1, 1, 0, 64)
		b3 = branchConvBN(b3, 3, 1, 1, 96)
		b3 = branchConvBN(b3, 3, 1, 1, 96)
		b4 := b.AvgPool(x, 3, 1, 1)
		b4 = branchConvBN(b4, 1, 1, 0, 96)
		x = b.Concat(b1, b2, b3, b4)
	}
	// Reduction-A.
	{
		r1 := branchConvBN(x, 3, 2, 0, 384)
		r2 := branchConvBN(x, 1, 1, 0, 192)
		r2 = branchConvBN(r2, 3, 1, 1, 224)
		r2 = branchConvBN(r2, 3, 2, 0, 256)
		r3 := b.MaxPool(x, 3, 2, 0)
		x = b.Concat(r1, r2, r3)
	}
	// 7x Inception-B (the 1x7/7x1 factorized convolutions are modeled
	// as 3x3-equivalent-cost convolutions at matched channel widths).
	for i := 0; i < 7; i++ {
		b1 := branchConvBN(x, 1, 1, 0, 384)
		b2 := branchConvBN(x, 1, 1, 0, 192)
		b2 = branchConvBN(b2, 3, 1, 1, 224)
		b2 = branchConvBN(b2, 3, 1, 1, 256)
		b3 := branchConvBN(x, 1, 1, 0, 192)
		b3 = branchConvBN(b3, 3, 1, 1, 192)
		b3 = branchConvBN(b3, 3, 1, 1, 224)
		b3 = branchConvBN(b3, 3, 1, 1, 224)
		b3 = branchConvBN(b3, 3, 1, 1, 256)
		b4 := b.AvgPool(x, 3, 1, 1)
		b4 = branchConvBN(b4, 1, 1, 0, 128)
		x = b.Concat(b1, b2, b3, b4)
	}
	// Reduction-B.
	{
		r1 := branchConvBN(x, 1, 1, 0, 192)
		r1 = branchConvBN(r1, 3, 2, 0, 192)
		r2 := branchConvBN(x, 1, 1, 0, 256)
		r2 = branchConvBN(r2, 3, 1, 1, 320)
		r2 = branchConvBN(r2, 3, 2, 0, 320)
		r3 := b.MaxPool(x, 3, 2, 0)
		x = b.Concat(r1, r2, r3)
	}
	// 3x Inception-C.
	for i := 0; i < 3; i++ {
		b1 := branchConvBN(x, 1, 1, 0, 256)
		b2 := branchConvBN(x, 1, 1, 0, 384)
		b2a := branchConvBN(b2, 3, 1, 1, 256)
		b2b := branchConvBN(b2, 3, 1, 1, 256)
		b3 := branchConvBN(x, 1, 1, 0, 384)
		b3 = branchConvBN(b3, 3, 1, 1, 512)
		b3a := branchConvBN(b3, 3, 1, 1, 256)
		b3b := branchConvBN(b3, 3, 1, 1, 256)
		b4 := b.AvgPool(x, 3, 1, 1)
		b4 = branchConvBN(b4, 1, 1, 0, 256)
		x = b.Concat(b1, b2a, b2b, b3a, b3b, b4)
	}
	x = b.GlobalAvgPool(x)
	logits := b.FC(x, 1000)
	return b.Train(logits)
}
