package core

// SetPairComputeHook installs f as the hook every pair campaign calls
// with +1 as it starts and -1 as it ends, and returns a function that
// removes it. No pair may be in flight across either call.
func SetPairComputeHook(f func(delta int)) (remove func()) {
	onPairCompute = f
	return func() { onPairCompute = nil }
}

// PoolSize is the capacity of the measurement-step pool.
func PoolSize() int { return cap(pool) }
