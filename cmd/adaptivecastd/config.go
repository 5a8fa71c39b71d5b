package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"adaptivecast"
)

// NodeSpec describes one cluster member.
type NodeSpec struct {
	ID        adaptivecast.NodeID   `json:"id"`
	Addr      string                `json:"addr"`
	Neighbors []adaptivecast.NodeID `json:"neighbors"`
}

// ClusterConfig is the JSON cluster file.
type ClusterConfig struct {
	// K is the reliability target (default 0.9999).
	K float64 `json:"k"`
	// HeartbeatMillis is δ in milliseconds (default 1000).
	HeartbeatMillis int `json:"heartbeatMillis"`
	// Piggyback attaches knowledge snapshots to data frames.
	Piggyback bool `json:"piggyback"`
	// Nodes lists every member; IDs must be dense 0..n-1.
	Nodes []NodeSpec `json:"nodes"`
}

// ExampleConfig is a ready-to-edit cluster file.
const ExampleConfig = `{
  "k": 0.9999,
  "heartbeatMillis": 1000,
  "piggyback": false,
  "nodes": [
    {"id": 0, "addr": "127.0.0.1:7946", "neighbors": [1, 2]},
    {"id": 1, "addr": "127.0.0.1:7947", "neighbors": [0, 2]},
    {"id": 2, "addr": "127.0.0.1:7948", "neighbors": [0, 1]}
  ]
}`

// LoadClusterConfig reads and validates a cluster file. Unknown fields
// are ignored, so a file written for an older daemon — one that still
// sets adaptiveCadenceMillis, say — loads as it is.
func LoadClusterConfig(path string) (*ClusterConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read config: %w", err)
	}
	var cc ClusterConfig
	if err := json.Unmarshal(data, &cc); err != nil {
		return nil, fmt.Errorf("parse config: %w", err)
	}
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	if cc.K == 0 {
		cc.K = 0.9999
	}
	if cc.HeartbeatMillis == 0 {
		cc.HeartbeatMillis = 1000
	}
	return &cc, nil
}

// Validate checks structural consistency: dense IDs, symmetric neighbor
// relations, addresses present, a connected topology, and no negative
// heartbeat period.
func (cc *ClusterConfig) Validate() error {
	n := len(cc.Nodes)
	if n < 2 {
		return fmt.Errorf("config: need at least 2 nodes, got %d", n)
	}
	if cc.K < 0 || cc.K >= 1 {
		return fmt.Errorf("config: k=%v outside [0,1)", cc.K)
	}
	if cc.HeartbeatMillis < 0 {
		return fmt.Errorf("config: heartbeatMillis=%d is negative", cc.HeartbeatMillis)
	}
	seen := make(map[adaptivecast.NodeID]bool, n)
	for _, ns := range cc.Nodes {
		if ns.ID < 0 || int(ns.ID) >= n {
			return fmt.Errorf("config: node ID %d outside dense range [0,%d)", ns.ID, n)
		}
		if seen[ns.ID] {
			return fmt.Errorf("config: duplicate node ID %d", ns.ID)
		}
		seen[ns.ID] = true
		if ns.Addr == "" {
			return fmt.Errorf("config: node %d has no address", ns.ID)
		}
	}
	// Build the graph; AddLink validates endpoints and self-loops, and
	// symmetry falls out because links are undirected — but we still
	// check the declared relations agree in both directions.
	g := adaptivecast.NewTopology(n)
	declared := make(map[adaptivecast.Link]int)
	for _, ns := range cc.Nodes {
		for _, nb := range ns.Neighbors {
			if _, err := g.AddLink(ns.ID, nb); err != nil {
				return fmt.Errorf("config: node %d: %w", ns.ID, err)
			}
			declared[adaptivecast.NewLink(ns.ID, nb)]++
		}
	}
	for l, count := range declared {
		if count != 2 {
			return fmt.Errorf("config: link %v declared by only one endpoint", l)
		}
	}
	if !g.Connected() {
		return fmt.Errorf("config: topology is not connected")
	}
	return nil
}

// Node returns the spec for one ID.
func (cc *ClusterConfig) Node(id adaptivecast.NodeID) (*NodeSpec, error) {
	for i := range cc.Nodes {
		if cc.Nodes[i].ID == id {
			return &cc.Nodes[i], nil
		}
	}
	return nil, fmt.Errorf("config: node %d not in cluster file", id)
}

// AddressBook returns the peer address map for the TCP transport.
func (cc *ClusterConfig) AddressBook() map[adaptivecast.NodeID]string {
	out := make(map[adaptivecast.NodeID]string, len(cc.Nodes))
	for _, ns := range cc.Nodes {
		out[ns.ID] = ns.Addr
	}
	return out
}

// HeartbeatPeriod returns δ as a duration.
func (cc *ClusterConfig) HeartbeatPeriod() time.Duration {
	return time.Duration(cc.HeartbeatMillis) * time.Millisecond
}
