// Package timeoutonly implements the timeout-based loss recovery scheme of
// Fig. 17 (the NVIDIA Spectrum SuperNIC approach, §6.3): the receiver
// tolerates out-of-order arrivals (Write-Only conversion) and returns only
// cumulative ACKs; the sender has no fast retransmission at all and
// recovers every loss through the retransmission timer.
package timeoutonly

import (
	"dcpsim/internal/nic"
	"dcpsim/internal/transport/base"
)

// New builds a timeout-only endpoint: the Go-Back-N sender on the short
// RTO (its receiver never NAKs, so only the timer rewinds it) over the
// order-tolerant cumulative receiver.
func New(n *nic.NIC, env *base.Env) base.Transport {
	return base.NewEndpoint(n, env, base.Scheme{
		Name:        "timeout",
		NewSender:   func(q *base.SendQP) base.Sender { return base.NewGoBack(q, q.Env().RTOLow) },
		NewReceiver: base.CumulativeReceiver(false),
	})
}
