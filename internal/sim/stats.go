package sim

// Stats accumulates the message counters the paper's figures report:
// sends and byte volume per kind (Figures 5 and 6 divide the heartbeat
// count by the link count), deliveries, and the messages the adversarial
// fault model ate.
type Stats struct {
	sentByKind  map[Kind]int
	bytesByKind map[Kind]int
	delivered   int
	totalSent   int
	faultDrops  int
}

func newStats() Stats {
	return Stats{sentByKind: make(map[Kind]int), bytesByKind: make(map[Kind]int)}
}

func (s *Stats) recordSend(msg Message) {
	s.sentByKind[msg.Kind]++
	s.bytesByKind[msg.Kind] += msg.Size
	s.totalSent++
}

// FaultDrops returns how many transmissions the fault model ate —
// counted apart from the config loss, so scenarios can tell "the paper's
// loss model" apart from "the injected hostility".
func (s *Stats) FaultDrops() int { return s.faultDrops }

// TotalSent returns the number of messages sent across all kinds.
func (s *Stats) TotalSent() int { return s.totalSent }

// Sent returns the number of messages of one kind sent.
func (s *Stats) Sent(kind Kind) int { return s.sentByKind[kind] }

// SentBytes returns the simulated byte volume of one kind.
func (s *Stats) SentBytes(kind Kind) int { return s.bytesByKind[kind] }

// Delivered returns how many messages reached a registered handler.
func (s *Stats) Delivered() int { return s.delivered }

// Reset zeroes all counters.
func (s *Stats) Reset() { *s = newStats() }
