package workload

// OSDataTop returns the exclusive end of core's OS data region, the
// highest region of its address window.
func OSDataTop(core int) uint64 {
	return uint64(core)<<coreWindowBits + osDataBase + osDataBytes
}
