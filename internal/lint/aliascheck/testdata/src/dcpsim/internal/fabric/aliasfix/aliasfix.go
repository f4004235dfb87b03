// Package aliasfix is an aliascheck fixture: once a *packet.Packet is
// handed to the fabric, the caller must stop touching it, and once it is
// released to its free list, the caller must not mention it at all.
package aliasfix

import "dcpsim/internal/packet"

type queue struct{ depth int }

func (q *queue) Enqueue(p *packet.Packet) { q.depth++ }

func mutateAfterHandoff(q *queue, p *packet.Packet) {
	q.Enqueue(p)
	p.ECN = true // want `mutates p after it was handed to Enqueue`
}

func methodAfterHandoff(q *queue, p *packet.Packet) {
	q.Enqueue(p)
	_ = p.String() // want `calls p\.String after p was handed to Enqueue`
}

func doubleHandoff(q1, q2 *queue, p *packet.Packet) {
	q1.Enqueue(p)
	q2.Enqueue(p) // want `passes p to another call`
}

func retainAfterHandoff(q *queue, p *packet.Packet) *packet.Packet {
	q.Enqueue(p)
	return p // want `retains p after it was handed to Enqueue`
}

func storeAfterHandoff(q *queue, inflight map[uint32]*packet.Packet, p *packet.Packet) {
	q.Enqueue(p)
	inflight[p.PSN] = p // want `retains p after it was handed to Enqueue`
}

func mutateThenHandoff(q *queue, p *packet.Packet) {
	p.ECN = true // canonical ordering: mutate first
	p.PSN = 7
	q.Enqueue(p)
}

func readAfterHandoff(q *queue, p *packet.Packet) int {
	q.Enqueue(p)
	return p.Size // field reads stay legal in the single-threaded engine
}

func reassignRetires(q *queue, p *packet.Packet, fresh *packet.Packet) {
	q.Enqueue(p)
	p = fresh
	p.ECN = true // p now names a different packet
	q.Enqueue(p)
}

func allowedLoopback(q *queue, p *packet.Packet) {
	q.Enqueue(p)
	//lint:allow aliascheck loopback path re-stamps the packet before the engine runs
	p.ECN = true
}

func readAfterRelease(l *packet.FreeList, p *packet.Packet) uint32 {
	l.Release(p)
	return p.PSN // want `uses p after it was released`
}

func mutateAfterRelease(l *packet.FreeList, p *packet.Packet) {
	l.Release(p)
	p.ECN = true // want `uses p after it was released`
}

func releaseTwice(l *packet.FreeList, p *packet.Packet) {
	l.Release(p)
	l.Release(p) // want `uses p after it was released`
}

func readThenRelease(l *packet.FreeList, p *packet.Packet) uint32 {
	psn := p.PSN // copy what outlives the packet first
	l.Release(p)
	return psn
}

func drawAfterRelease(l *packet.FreeList, p *packet.Packet) *packet.Packet {
	l.Release(p)
	p = l.Ack(p.FlowID, 0, 1, 0) // want `uses p after it was released`
	p.EPSN = 2                   // p now names the freshly drawn packet
	return p
}
