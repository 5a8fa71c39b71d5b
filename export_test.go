package adaptivecast

import "unsafe"

// DeliveryLimitForTest bounds a node's delivery queue at room for n
// deliveries of bodyLen-byte bodies (the internal byte bound each
// delivery weighs its body and its own size against), so a test can make
// the queue overflow without queueing 64 MiB first.
func DeliveryLimitForTest(n, bodyLen int) Option {
	return func(c *nodeConfig) {
		c.inner.DeliveryBuffer = n * (int(unsafe.Sizeof(Delivery{})) + bodyLen)
	}
}
