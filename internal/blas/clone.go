package blas

// Cloner is implemented by kernels that keep internal state (packing
// buffers) and therefore cannot be shared across goroutines: Clone returns
// an independent kernel with the same tuning.
type Cloner interface {
	// Clone returns a kernel safe to use concurrently with the receiver.
	Clone() Kernel
}

// Clone implements Cloner: a fresh BlockedKernel with the same block sizes
// but its own packing buffers.
func (k *BlockedKernel) Clone() Kernel {
	return &BlockedKernel{MC: k.MC, KC: k.KC, NC: k.NC}
}

// CloneKernel returns a goroutine-independent copy of k: stateful kernels
// are cloned via Cloner, stateless ones are returned as-is. Nil selects
// DefaultKernel.
func CloneKernel(k Kernel) Kernel {
	if k == nil {
		k = DefaultKernel
	}
	if c, ok := k.(Cloner); ok {
		return c.Clone()
	}
	return k
}
