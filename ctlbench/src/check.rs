//! Correctness checkers, one per workload. Each compares what the
//! controller produced with ground truth the benchmark holds itself (its
//! own model of the flow files it wrote, or the simulated switch's state),
//! and returns a description of the first mismatch instead of panicking,
//! so the run can count it in `failed`.

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

use yanc::{YancFs, YancResult};
use yanc_dataplane::{FlowTable, SimHost, SimSwitch};
use yanc_openflow::{Action, FlowMatch};

/// `reactive`: did `dst`'s echo reply for `seq` reach `host`?
pub fn reply_arrived(host: &SimHost, dst: Ipv4Addr, seq: u16) -> bool {
    host.ping_replies
        .iter()
        .rev()
        .any(|&(ip, s)| ip == dst && s == seq)
}

/// A switch table entry as the benchmark specified it.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedEntry {
    /// Match.
    pub m: FlowMatch,
    /// Priority.
    pub priority: u16,
    /// Actions.
    pub actions: Vec<Action>,
}

/// `flow_churn`: does `table` hold exactly `expected` (same matches,
/// priorities and actions, nothing more)?
pub fn table_matches(table: &FlowTable, expected: &[ExpectedEntry]) -> Result<(), String> {
    if table.len() != expected.len() {
        return Err(format!(
            "table holds {} entries, fs spec {}",
            table.len(),
            expected.len()
        ));
    }
    for want in expected {
        let found = table
            .iter()
            .filter(|e| e.m == want.m && e.priority == want.priority)
            .collect::<Vec<_>>();
        match found.as_slice() {
            [e] if e.actions == want.actions => {}
            [e] => {
                return Err(format!(
                    "priority {} entry has actions {:?}, fs spec {:?}",
                    want.priority, e.actions, want.actions
                ))
            }
            _ => {
                return Err(format!(
                    "{} entries for the priority {} match, want 1",
                    found.len(),
                    want.priority
                ))
            }
        }
    }
    Ok(())
}

/// Port counter files, in the order [`SwitchTruth::ports`] stores them.
pub const PORT_COUNTERS: [&str; 6] = [
    "rx_packets",
    "tx_packets",
    "rx_bytes",
    "tx_bytes",
    "rx_dropped",
    "tx_dropped",
];

/// A switch's counters as the simulated hardware holds them.
#[derive(Debug, Clone, Default)]
pub struct SwitchTruth {
    /// Port number → counters in [`PORT_COUNTERS`] order.
    pub ports: BTreeMap<u16, [u64; 6]>,
    /// `(match, priority, packets, bytes)` per table entry.
    pub flows: Vec<(FlowMatch, u16, u64, u64)>,
}

impl SwitchTruth {
    /// Capture `sw`'s port and flow counters.
    pub fn of(sw: &SimSwitch) -> Self {
        let ports = sw
            .ports
            .iter()
            .map(|(&no, p)| {
                (
                    no,
                    [
                        p.rx_packets,
                        p.tx_packets,
                        p.rx_bytes,
                        p.tx_bytes,
                        p.rx_dropped,
                        p.tx_dropped,
                    ],
                )
            })
            .collect();
        let flows = sw
            .table(0)
            .map(|t| {
                t.iter()
                    .map(|e| (e.m, e.priority, e.packets, e.bytes))
                    .collect()
            })
            .unwrap_or_default();
        SwitchTruth { ports, flows }
    }
}

/// One switch's counter set as read back from `/net`.
#[derive(Debug, Clone, Default)]
pub struct CounterSet {
    /// `counters/<name>` at switch level.
    pub switch: BTreeMap<String, u64>,
    /// `ports/p<no>/counters/<name>`.
    pub ports: BTreeMap<u16, BTreeMap<String, u64>>,
    /// `flows/<flow>/counters/<name>`.
    pub flows: BTreeMap<String, BTreeMap<String, u64>>,
}

impl CounterSet {
    /// Largest value read.
    pub fn max_value(&self) -> u64 {
        let all = self
            .switch
            .values()
            .chain(self.ports.values().flat_map(|m| m.values()))
            .chain(self.flows.values().flat_map(|m| m.values()));
        all.copied().max().unwrap_or(0)
    }
}

fn read_dir_counters(yfs: &YancFs, dir: &str) -> YancResult<BTreeMap<String, u64>> {
    let fs = yfs.filesystem();
    let mut out = BTreeMap::new();
    for e in fs.readdir(dir, yfs.creds())? {
        let text = fs.read_to_string(&format!("{dir}/{}", e.name), yfs.creds())?;
        let v = text
            .trim()
            .parse()
            .map_err(|_| yanc::YancError::parse(e.name.clone(), text.clone()))?;
        out.insert(e.name, v);
    }
    Ok(out)
}

/// Read `sw`'s whole counter set the way a monitoring app would with `cat`:
/// `counters/`, every `ports/*/counters/` and every `flows/*/counters/`.
pub fn read_counter_set(yfs: &YancFs, sw: &str) -> YancResult<CounterSet> {
    let fs = yfs.filesystem();
    let base = yfs.switch_dir(sw);
    let mut set = CounterSet {
        switch: read_dir_counters(yfs, base.join("counters").as_str())?,
        ..Default::default()
    };
    let ports = base.join("ports");
    for e in fs.readdir(ports.as_str(), yfs.creds())? {
        let Some(no) = e.name.strip_prefix('p').and_then(|n| n.parse().ok()) else {
            continue;
        };
        let dir = ports.join(&e.name).join("counters");
        set.ports.insert(no, read_dir_counters(yfs, dir.as_str())?);
    }
    let flows = base.join("flows");
    for e in fs.readdir(flows.as_str(), yfs.creds())? {
        let dir = flows.join(&e.name).join("counters");
        set.flows
            .insert(e.name.clone(), read_dir_counters(yfs, dir.as_str())?);
    }
    Ok(set)
}

/// `stats_monitor`: does every counter read back equal the hardware's at
/// poll time? `flow_keys` maps fs flow names to their `(match, priority)`.
pub fn counters_match(
    read: &CounterSet,
    truth: &SwitchTruth,
    flow_keys: &HashMap<String, (FlowMatch, u16)>,
) -> Result<(), String> {
    for (&no, want) in &truth.ports {
        let Some(got) = read.ports.get(&no) else {
            // Ports the fs never materialized (e.g. the LOCAL port) carry
            // no counter files.
            continue;
        };
        for (name, &w) in PORT_COUNTERS.iter().zip(want) {
            if got.get(*name) != Some(&w) {
                return Err(format!(
                    "port {no} {name}: read {:?}, switch {w}",
                    got.get(*name)
                ));
            }
        }
    }
    if read.ports.is_empty() {
        return Err("no port counters read".into());
    }
    for (name, got) in &read.flows {
        let Some((m, prio)) = flow_keys.get(name) else {
            return Err(format!("flow {name}: unknown to the checker"));
        };
        let Some(&(_, _, pk, by)) = truth.flows.iter().find(|f| f.0 == *m && f.1 == *prio) else {
            return Err(format!("flow {name}: not in the switch table"));
        };
        if got.get("packets") != Some(&pk) || got.get("bytes") != Some(&by) {
            return Err(format!(
                "flow {name}: read packets {:?} bytes {:?}, switch {pk} {by}",
                got.get("packets"),
                got.get("bytes")
            ));
        }
    }
    let (pk, by) = truth
        .flows
        .iter()
        .fold((0, 0), |(p, b), f| (p + f.2, b + f.3));
    if read.switch.get("flow_packets") != Some(&pk) || read.switch.get("flow_bytes") != Some(&by) {
        return Err(format!(
            "switch flow totals: read {:?}/{:?}, switch {pk}/{by}",
            read.switch.get("flow_packets"),
            read.switch.get("flow_bytes")
        ));
    }
    Ok(())
}
