//! The three benchmark workloads: topology, set-up, steady window and the
//! modeled results read from public accessors.

use crate::layers::{add, Tracer};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use tas::{ApiKind, CcAlgo, TasConfig, TasHost};
use tas_apps::bulk::{BulkReceiver, BulkSender};
use tas_apps::echo::{EchoServer, ServerMode};
use tas_apps::kv::{self, KvServer};
use tas_apps::loadgen::{self, LoadGenConfig, LoadGenHost};
use tas_baselines::{profiles, StackHost, StackHostConfig};
use tas_netsim::app::{App, SockId};
use tas_netsim::topo::{host_ip, host_mac};
use tas_netsim::{FaultSpec, NetMsg, NicConfig, PortConfig, Switch};
use tas_sim::{AgentId, Histogram, Rng, Scope, Sim, SimTime};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// TAS sockets server, 64 B echo, closed loop over many connections.
    Echo16kTas,
    /// Linux-model server, KV GET, closed loop.
    Kv2kLinux,
    /// TAS to TAS bulk flows over one lossy 10G link.
    BulklossTas,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Echo16kTas,
        Workload::Kv2kLinux,
        Workload::BulklossTas,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Echo16kTas => "echo16k_tas",
            Workload::Kv2kLinux => "kv2k_linux",
            Workload::BulklossTas => "bulkloss_tas",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The full-size shape of the workload.
    pub fn shape(self) -> Shape {
        match self {
            Workload::Echo16kTas => Shape {
                workload: self,
                conns: 16_000,
                client_hosts: 6,
                server_cores: (10, 10),
                warmup: SimTime::from_ms(15),
                setup_reps: 2,
                sim_us_per_host_s: 5_500.0,
            },
            Workload::Kv2kLinux => Shape {
                workload: self,
                conns: 2_000,
                client_hosts: 6,
                server_cores: (4, 4),
                warmup: SimTime::from_ms(5),
                setup_reps: 40,
                sim_us_per_host_s: 100_000.0,
            },
            Workload::BulklossTas => Shape {
                workload: self,
                conns: 100,
                client_hosts: 1,
                server_cores: (2, 2),
                warmup: SimTime::from_ms(20),
                setup_reps: 30,
                sim_us_per_host_s: 195_000.0,
            },
        }
    }

    fn is_rpc(self) -> bool {
        self != Workload::BulklossTas
    }

    /// Request and response payload bytes of one RPC (0 for bulk).
    pub fn rpc_sizes(self) -> (usize, usize) {
        match self {
            Workload::Echo16kTas => (ECHO_SIZE, ECHO_SIZE),
            Workload::Kv2kLinux => (kv::REQ_HDR + kv::VAL_SIZE, kv::RESP_HDR + kv::VAL_SIZE),
            Workload::BulklossTas => (0, 0),
        }
    }
}

/// The size of one workload instance.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Which workload.
    pub workload: Workload,
    /// Connections (RPC) or bulk flows.
    pub conns: u32,
    /// Client hosts (LoadGen hosts, or bulk senders).
    pub client_hosts: usize,
    /// Server cores: TAS (fast-path, app); baselines use the sum.
    pub server_cores: (usize, usize),
    /// Simulated time run after set-up and before the steady window.
    pub warmup: SimTime,
    /// Set-ups per run besides the held-out one (at least two); a cheap
    /// set-up repeats more often so its median is steady.
    pub setup_reps: usize,
    /// Simulated µs per host second the steady window is sized by, so a
    /// run of `--seconds s` simulates a fixed, seed-independent span.
    pub sim_us_per_host_s: f64,
}

impl Shape {
    /// The steady window's simulated length for a run of `seconds`.
    pub fn window(&self, seconds: f64) -> SimTime {
        SimTime::from_ns((seconds * self.sim_us_per_host_s * 1e3) as u64)
    }
}

/// Echo and KV port.
const RPC_PORT: u16 = 7;
/// Bulk port.
const BULK_PORT: u16 = 9;
/// Echo message size (bytes each way).
const ECHO_SIZE: usize = 64;
/// Simulated step while waiting for every connection to establish.
const RAMP_STEP: SimTime = SimTime::from_us(500);
/// Simulated time after which an incomplete set-up is a failure.
const RAMP_CAP: SimTime = SimTime::from_ms(500);
/// Injected loss on every switch port of the bulk workload.
const BULK_LOSS: f64 = 0.01;

/// A built simulation and the roles of its agents.
pub(crate) struct Built {
    /// The simulation.
    pub sim: Sim<NetMsg>,
    /// The workload shape.
    pub shape: Shape,
    /// The server (RPC) or bulk receiver.
    pub server: AgentId,
    /// LoadGen hosts (RPC) or bulk senders.
    pub clients: Vec<AgentId>,
    /// The switch.
    pub switch: AgentId,
}

/// Builds the star topology of `shape`: one switch, the server on port 0,
/// the clients on the others. `seed` seeds the simulation, the clients'
/// start offsets and the bulk link's loss.
pub(crate) fn build(shape: Shape, seed: u64, tracer: Option<&Tracer>) -> Built {
    let mut sim: Sim<NetMsg> = Sim::new(seed);
    let mut inputs = Rng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let w = shape.workload;
    let switch = add(&mut sim, Switch::new("star"), tracer);
    let server_ip = host_ip(0);
    let mut port_cfg = PortConfig::tengig();
    if w == Workload::BulklossTas {
        port_cfg.fault = FaultSpec::uniform_loss(BULK_LOSS, inputs.next_u64() | 1);
    }
    let mut hosts = Vec::with_capacity(1 + shape.client_hosts);
    for i in 0..=shape.client_hosts as u32 {
        let (ip, mac) = (host_ip(i), host_mac(i));
        let (nic, port) = match (w, i) {
            (Workload::BulklossTas, _) => (NicConfig::client_10g(1), port_cfg),
            (_, 0) => (NicConfig::server_40g(1), PortConfig::fortygig()),
            _ => (NicConfig::client_10g(1), PortConfig::tengig()),
        };
        let id = match (w, i) {
            (Workload::Echo16kTas, 0) => {
                let app = EchoServer::new(RPC_PORT, ECHO_SIZE, ServerMode::Echo, 300);
                let cfg = tas_config(shape, 1024, true);
                let host = TasHost::new(ip, mac, nic, cfg, switch, Box::new(app));
                add(&mut sim, host, tracer)
            }
            (Workload::Kv2kLinux, 0) => {
                let (fp, app) = shape.server_cores;
                let mut cfg = StackHostConfig::linux(fp + app);
                cfg.tcp.recv_buf = 4096;
                cfg.tcp.send_buf = 4096;
                cfg.max_core_backlog = SimTime::from_ms(50);
                let app = Box::new(KvServer::new(RPC_PORT));
                let host = StackHost::new(ip, mac, nic, profiles::linux(), cfg, switch, app);
                add(&mut sim, host, tracer)
            }
            (Workload::BulklossTas, _) => {
                let app: Box<dyn App> = if i == 0 {
                    Box::new(BulkReceiver::new(BULK_PORT))
                } else {
                    Box::new(BulkSender::new(server_ip, BULK_PORT, shape.conns))
                };
                let cfg = tas_config(shape, 128 * 1024, false);
                add(
                    &mut sim,
                    TasHost::new(ip, mac, nic, cfg, switch, app),
                    tracer,
                )
            }
            (_, _) => {
                let cfg = loadgen_config(shape, i, &mut inputs);
                let host = LoadGenHost::new(ip, mac, nic, switch, cfg);
                add(&mut sim, host, tracer)
            }
        };
        let sw = sim.agent_mut::<Switch>(switch);
        let p = sw.add_port(id, port);
        sw.set_route(ip, vec![p]);
        hosts.push(id);
    }
    // The server starts at t=0; clients get seeded offsets so each seed
    // offers a different arrival schedule. Every host type's start timer
    // is kind 0 (`INIT`).
    sim.inject_timer(SimTime::ZERO, hosts[0], tas::host::timers::INIT, 0);
    for &h in &hosts[1..] {
        let at = SimTime::from_ns(inputs.below(200_000));
        sim.inject_timer(at, h, loadgen::timers::INIT, 0);
    }
    Built {
        sim,
        shape,
        server: hosts[0],
        clients: hosts[1..].to_vec(),
        switch,
    }
}

/// TAS configuration of the benchmark's TAS hosts: DCTCP rate control
/// (the paper's testbed runs DCTCP everywhere) and deep rings for the
/// closed loop.
fn tas_config(shape: Shape, buf: usize, rpc: bool) -> TasConfig {
    let mut cfg = TasConfig::rpc_bench(shape.server_cores.0, shape.server_cores.1);
    cfg.api = ApiKind::Sockets;
    cfg.rx_buf = buf;
    cfg.tx_buf = buf;
    cfg.cc = CcAlgo::DctcpRate;
    cfg.initial_rate_bps = if rpc { 1_000_000_000 } else { 500_000_000 };
    cfg.control_interval = SimTime::from_us(200);
    cfg.max_core_backlog = SimTime::from_ms(50);
    cfg
}

/// LoadGen client `i` (1-based): an even share of the connections, closed
/// loop with one request outstanding per connection.
fn loadgen_config(shape: Shape, i: u32, inputs: &mut Rng) -> LoadGenConfig {
    let n = shape.client_hosts as u32;
    let conns = shape.conns / n + u32::from(i <= shape.conns % n);
    let (req_size, resp_size) = shape.workload.rpc_sizes();
    let mut cfg = LoadGenConfig {
        server: host_ip(0),
        port: RPC_PORT,
        conns,
        req_size,
        resp_size,
        connects_per_ms: 400,
        ..LoadGenConfig::default()
    };
    if shape.workload == Workload::Kv2kLinux {
        let mut req = vec![0u8; req_size];
        req[0] = kv::OP_GET;
        req[1..5].copy_from_slice(&inputs.next_u32().to_be_bytes());
        req[5..7].copy_from_slice(&(kv::VAL_SIZE as u16).to_be_bytes());
        cfg.req_template = Some(req);
    }
    cfg
}

impl Built {
    fn loadgens(&self) -> impl Iterator<Item = &LoadGenHost> + '_ {
        let rpc = self.shape.workload.is_rpc();
        self.clients
            .iter()
            .filter(move |_| rpc)
            .map(|&c| self.sim.agent::<LoadGenHost>(c))
    }

    fn tas_hosts(&self) -> Vec<&TasHost> {
        match self.shape.workload {
            Workload::Echo16kTas => vec![self.sim.agent::<TasHost>(self.server)],
            Workload::Kv2kLinux => Vec::new(),
            Workload::BulklossTas => std::iter::once(self.server)
                .chain(self.clients.iter().copied())
                .map(|h| self.sim.agent::<TasHost>(h))
                .collect(),
        }
    }

    /// Connections (or flows) established so far, counted at the clients.
    pub fn established(&self) -> u64 {
        match self.shape.workload {
            Workload::BulklossTas => self
                .clients
                .iter()
                .map(|&c| self.sim.agent::<TasHost>(c).sp_stats().established)
                .sum(),
            _ => self.loadgens().map(|l| l.established).sum(),
        }
    }

    /// Runs until every connection is established; errors if that takes
    /// longer than the simulated cap.
    pub fn ramp(&mut self) -> Result<(), String> {
        let want = self.shape.conns as u64;
        while self.established() < want {
            if self.sim.now() >= RAMP_CAP {
                return Err(format!(
                    "only {} of {want} connections established after {} ms",
                    self.established(),
                    RAMP_CAP.as_secs_f64() * 1e3
                ));
            }
            let t = self.sim.now() + RAMP_STEP;
            self.sim.run_until(t);
        }
        Ok(())
    }

    /// Runs the warmup; client latency recording starts at its end.
    pub fn warmup(&mut self) {
        let t0 = self.sim.now() + self.shape.warmup;
        if self.shape.workload.is_rpc() {
            for &c in &self.clients {
                let l = self.sim.agent_mut::<LoadGenHost>(c);
                l.latency = Histogram::new();
                l.measure_from = t0;
            }
        }
        self.sim.run_until(t0);
    }

    /// Every modeled counter the metrics are derived from.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        let w = self.shape.workload;
        for l in self.loadgens() {
            c.rpc_done += l.done;
            c.rpc_sent += l.sent;
            c.rpc_rexmits += l.rexmits;
        }
        for h in self.tas_hosts() {
            let fp = h.fp_stats();
            c.fp_pkts_rx += fp.pkts_rx;
            c.fp_exceptions += fp.exceptions;
            c.fp_drop_ooo += fp.drop_ooo;
            c.fp_fast_rexmits += fp.fast_rexmits;
            c.sp_timeout_rexmits += h.sp_stats().timeout_rexmits;
            c.drop_backlog += h
                .registry()
                .counter_value("host.drop_backlog", Scope::Global);
            c.fp_cycles += h.fp_busy_cycles().iter().sum::<u64>();
            c.sp_cycles += h.sp_busy_cycles();
            c.app_cycles += h.app_busy_cycles().iter().sum::<u64>();
        }
        match w {
            Workload::Kv2kLinux => {
                let s = self.sim.agent::<StackHost>(self.server);
                let t = s.tcp_stats();
                c.tcp_retransmits = t.retransmits;
                c.server_cycles = s.busy_cycles().iter().sum();
                c.server_pkts = t.segs_in + t.segs_out;
            }
            _ => {
                let s = self.sim.agent::<TasHost>(self.server);
                let fp = s.fp_stats();
                c.server_cycles = s.fp_busy_cycles().iter().sum::<u64>()
                    + s.sp_busy_cycles()
                    + s.app_busy_cycles().iter().sum::<u64>();
                c.server_pkts = fp.pkts_rx + fp.segs_tx + fp.acks_tx;
            }
        }
        if w == Workload::BulklossTas {
            let host = self.sim.agent::<TasHost>(self.server);
            let rx = host.app_as::<BulkReceiver>();
            c.bulk_rx_pkts = host.fp_stats().pkts_rx;
            c.bulk_rx_bytes = rx.total;
            c.bulk_flow_bytes = rx.window_bytes.clone();
        }
        let sw = self.sim.agent::<Switch>(self.switch);
        c.sw_drops = sw.total_drops();
        c.sw_marked = sw.total_marked();
        c.sw_forwarded = (0..sw.port_count()).map(|p| sw.port_forwarded(p)).sum();
        c
    }

    /// Client-observed latency since the warmup gate, merged over clients.
    pub fn rpc_latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for l in self.loadgens() {
            h.merge(&l.latency);
        }
        h
    }

    /// The bulk senders' per-flow RTT estimates (µs).
    pub fn flow_rtts_us(&self) -> Vec<u32> {
        self.clients
            .iter()
            .flat_map(|&c| {
                self.sim
                    .agent::<TasHost>(c)
                    .sample_rtts(self.shape.conns as usize)
            })
            .collect()
    }

    /// Output checks that hold at any instant of a correct run.
    pub fn check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for (i, l) in self.loadgens().enumerate() {
            if l.done > l.sent {
                bad.push(format!("loadgen {i}: done {} > sent {}", l.done, l.sent));
            }
        }
        match self.shape.workload {
            Workload::Echo16kTas => {
                let e = self
                    .sim
                    .agent::<TasHost>(self.server)
                    .app_as::<EchoServer>();
                if e.bytes_in != e.bytes_out {
                    bad.push(format!(
                        "echo server: bytes_in {} != bytes_out {}",
                        e.bytes_in, e.bytes_out
                    ));
                }
            }
            Workload::Kv2kLinux => {}
            Workload::BulklossTas => {
                let rx = self
                    .sim
                    .agent::<TasHost>(self.server)
                    .app_as::<BulkReceiver>();
                let sent: u64 = self
                    .clients
                    .iter()
                    .map(|&c| {
                        self.sim
                            .agent::<TasHost>(c)
                            .app_as::<BulkSender>()
                            .total_sent
                    })
                    .sum();
                if rx.total > sent {
                    bad.push(format!("bulk: received {} > sent {sent}", rx.total));
                }
            }
        }
        bad
    }

    /// A digest of every simulated result: host counter snapshots, client
    /// and application counters, switch counters, the clock and the event
    /// count. Equal digests mean the runs simulated the same thing.
    pub fn digest(&self) -> u64 {
        let mut s = String::new();
        let sim = &self.sim;
        let _ = writeln!(
            s,
            "now {} events {}",
            sim.now().as_nanos(),
            sim.events_processed()
        );
        for h in self.tas_hosts() {
            s += &h.telemetry_snapshot().render_text();
            if let Some(e) = h.try_app::<EchoServer>() {
                let _ = writeln!(s, "echo {} {} {}", e.messages, e.bytes_in, e.bytes_out);
            }
            if let Some(r) = h.try_app::<BulkReceiver>() {
                let _ = writeln!(s, "bulk rx {} {:?}", r.total, r.window_bytes);
            }
            if let Some(x) = h.try_app::<BulkSender>() {
                let _ = writeln!(s, "bulk tx {}", x.total_sent);
            }
        }
        if self.shape.workload == Workload::Kv2kLinux {
            let h = sim.agent::<StackHost>(self.server);
            s += &h.telemetry_snapshot().render_text();
            let k = h.app_as::<KvServer>();
            let _ = writeln!(s, "kv {} {}", k.gets, k.sets);
        }
        for l in self.loadgens() {
            let lat = &l.latency;
            let _ = writeln!(
                s,
                "lg {} {} {} {} lat {} {} {} {}",
                l.done,
                l.sent,
                l.rexmits,
                l.established,
                lat.count(),
                lat.min(),
                lat.max(),
                lat.mean().to_bits()
            );
        }
        let sw = sim.agent::<Switch>(self.switch);
        for p in 0..sw.port_count() {
            let _ = writeln!(s, "port {p} {} {}", sw.port_forwarded(p), sw.port_bytes(p));
        }
        let _ = writeln!(s, "switch {} {}", sw.total_drops(), sw.total_marked());
        fnv1a(s.as_bytes())
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Modeled counters at one instant; metrics are window deltas.
#[derive(Clone, Debug, Default)]
pub(crate) struct Counters {
    /// RPCs completed (all clients).
    pub rpc_done: u64,
    /// RPC requests sent (first transmissions).
    pub rpc_sent: u64,
    /// RPC requests resent by the client watchdog.
    pub rpc_rexmits: u64,
    /// TAS fast-path packets processed (all TAS hosts).
    pub fp_pkts_rx: u64,
    /// TAS packets forwarded to the slow path.
    pub fp_exceptions: u64,
    /// TAS out-of-order drops.
    pub fp_drop_ooo: u64,
    /// TAS fast retransmits.
    pub fp_fast_rexmits: u64,
    /// TAS slow-path timeout retransmissions.
    pub sp_timeout_rexmits: u64,
    /// TAS host RX backlog drops.
    pub drop_backlog: u64,
    /// TAS fast-path core cycles.
    pub fp_cycles: u64,
    /// TAS slow-path core cycles.
    pub sp_cycles: u64,
    /// TAS application core cycles.
    pub app_cycles: u64,
    /// Reference TCP engine retransmissions (baseline server).
    pub tcp_retransmits: u64,
    /// Server (receiver) busy cycles, all cores.
    pub server_cycles: u64,
    /// Packets the server (receiver) handled, RX plus TX.
    pub server_pkts: u64,
    /// Bulk payload bytes delivered to the receiver application.
    pub bulk_rx_bytes: u64,
    /// Packets the bulk receiver's fast path handled.
    pub bulk_rx_pkts: u64,
    /// Bulk payload bytes per receiver socket.
    pub bulk_flow_bytes: BTreeMap<SockId, u64>,
    /// Switch queue drops.
    pub sw_drops: u64,
    /// Switch ECN marks.
    pub sw_marked: u64,
    /// Switch packets forwarded.
    pub sw_forwarded: u64,
}

/// Flows whose receiver socket got no payload between `a` and `b`, plus
/// flows that never reached the receiver.
pub(crate) fn idle_flows(a: &Counters, b: &Counters, flows: u32) -> u64 {
    let moved = b
        .bulk_flow_bytes
        .iter()
        .filter(|&(sock, &v)| v > a.bulk_flow_bytes.get(sock).copied().unwrap_or(0))
        .count() as u64;
    (flows as u64).saturating_sub(moved)
}
