//! Per-layer host-time attribution from outside the simulated stacks.
//!
//! In a traced run every agent is registered through [`add`], which wraps
//! it in [`Timed`]: the wrapper times each `Agent::on_event` call and
//! charges it to the layer its (agent type, event kind) pair maps to.
//! `sim.engine` self time is whatever the steady window spent outside the
//! wrapped calls: queue operations, batch drains and dispatch. An event
//! kind with no mapping is recorded as unmapped and fails the traced run;
//! there is no catch-all bucket.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};
use tas::TasHost;
use tas_apps::loadgen::{self, LoadGenHost};
use tas_baselines::StackHost;
use tas_netsim::switch::TIMER_SAMPLE_QUEUE;
use tas_netsim::{NetMsg, Switch};
use tas_sim::{Agent, AgentId, Ctx, Event, Sim};

/// A layer that host time is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Event queue, batch drain and dispatch (the remainder).
    Engine,
    /// The output-queued switch.
    Switch,
    /// TAS fast path receive: `Packet` messages.
    TasFpRx,
    /// TAS fast path transmit: `FP_TX` and `FP_CMD` timers.
    TasFpTx,
    /// TAS slow path: `SP_CTRL` and `SP_RUN` timers.
    TasSp,
    /// libTAS and the application: `APP`, `APP_RUN` timers and `Ctl`.
    TasApp,
    /// TAS proportionality monitor: `PROP` timers.
    TasProp,
    /// Baseline stack receive: `Packet` messages.
    BaselinesRx,
    /// Reference TCP engine: `CONN`, `CONN_CMD` and `BATCH` timers.
    BaselinesTcp,
    /// Baseline stack application: `APP`, `APP_RUN` timers and `Ctl`.
    BaselinesApp,
    /// The load-generator clients.
    Loadgen,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 11] = [
        Layer::Engine,
        Layer::Switch,
        Layer::TasFpRx,
        Layer::TasFpTx,
        Layer::TasSp,
        Layer::TasApp,
        Layer::TasProp,
        Layer::BaselinesRx,
        Layer::BaselinesTcp,
        Layer::BaselinesApp,
        Layer::Loadgen,
    ];

    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Engine => "sim.engine",
            Layer::Switch => "netsim.switch",
            Layer::TasFpRx => "tas.fp_rx",
            Layer::TasFpTx => "tas.fp_tx",
            Layer::TasSp => "tas.sp",
            Layer::TasApp => "tas.app",
            Layer::TasProp => "tas.prop",
            Layer::BaselinesRx => "baselines.rx",
            Layer::BaselinesTcp => "baselines.tcp",
            Layer::BaselinesApp => "baselines.app",
            Layer::Loadgen => "apps.loadgen",
        }
    }
}

/// Maps an agent type's events to layers.
pub(crate) trait Classify {
    /// Short agent-type name for error messages.
    const AGENT: &'static str;

    /// The layer `ev` is charged to, or `Err(kind)` naming the unmapped
    /// timer kind.
    fn layer(ev: &Event<NetMsg>) -> Result<Layer, u32>;
}

impl Classify for TasHost {
    const AGENT: &'static str = "TasHost";

    fn layer(ev: &Event<NetMsg>) -> Result<Layer, u32> {
        use tas::host::timers::*;
        match ev {
            Event::Msg {
                msg: NetMsg::Packet(_),
                ..
            } => Ok(Layer::TasFpRx),
            Event::Msg {
                msg: NetMsg::Ctl { .. },
                ..
            } => Ok(Layer::TasApp),
            Event::Timer { kind, .. } => match *kind {
                FP_TX | FP_CMD => Ok(Layer::TasFpTx),
                SP_CTRL | SP_RUN => Ok(Layer::TasSp),
                APP | APP_RUN => Ok(Layer::TasApp),
                PROP => Ok(Layer::TasProp),
                k => Err(k),
            },
        }
    }
}

impl Classify for StackHost {
    const AGENT: &'static str = "StackHost";

    fn layer(ev: &Event<NetMsg>) -> Result<Layer, u32> {
        use tas_baselines::host::timers::*;
        match ev {
            Event::Msg {
                msg: NetMsg::Packet(_),
                ..
            } => Ok(Layer::BaselinesRx),
            Event::Msg {
                msg: NetMsg::Ctl { .. },
                ..
            } => Ok(Layer::BaselinesApp),
            Event::Timer { kind, .. } => match *kind {
                CONN | CONN_CMD | BATCH => Ok(Layer::BaselinesTcp),
                APP | APP_RUN => Ok(Layer::BaselinesApp),
                k => Err(k),
            },
        }
    }
}

impl Classify for LoadGenHost {
    const AGENT: &'static str = "LoadGenHost";

    fn layer(ev: &Event<NetMsg>) -> Result<Layer, u32> {
        use loadgen::timers::*;
        match ev {
            Event::Msg {
                msg: NetMsg::Packet(_),
                ..
            } => Ok(Layer::Loadgen),
            Event::Timer { kind, .. } => match *kind {
                CONNECT | WATCHDOG | FIRE => Ok(Layer::Loadgen),
                k => Err(k),
            },
            Event::Msg {
                msg: NetMsg::Ctl { kind, .. },
                ..
            } => Err(*kind),
        }
    }
}

impl Classify for Switch {
    const AGENT: &'static str = "Switch";

    fn layer(ev: &Event<NetMsg>) -> Result<Layer, u32> {
        match ev {
            Event::Msg {
                msg: NetMsg::Packet(_),
                ..
            } => Ok(Layer::Switch),
            Event::Timer {
                kind: TIMER_SAMPLE_QUEUE,
                ..
            } => Ok(Layer::Switch),
            Event::Timer { kind, .. }
            | Event::Msg {
                msg: NetMsg::Ctl { kind, .. },
                ..
            } => Err(*kind),
        }
    }
}

/// Host time and event counts per layer, shared by every wrapper of a run.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// Nanoseconds charged per layer, indexed like [`Layer::ALL`].
    pub ns: [u64; Layer::ALL.len()],
    /// Events charged per layer.
    pub events: [u64; Layer::ALL.len()],
    /// `agent/kind` pairs seen while armed that map to no layer.
    pub unmapped: Vec<String>,
    /// Charging happens only while armed (the steady window).
    pub armed: bool,
    /// A fixed extra delay spun inside every call charged to this layer;
    /// the attribution self-test uses it to plant a known cost.
    pub inject: Option<(Layer, Duration)>,
}

impl LayerTimes {
    /// Host seconds charged to `layer`.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.ns[index(layer)] as f64 / 1e9
    }

    /// Events charged to `layer`.
    pub fn event_count(&self, layer: Layer) -> u64 {
        self.events[index(layer)]
    }
}

/// Position of `layer` in [`Layer::ALL`], which lists the variants in
/// declaration order.
fn index(layer: Layer) -> usize {
    layer as usize
}

/// The shared accumulator handed to every wrapper.
pub(crate) type Tracer = Rc<RefCell<LayerTimes>>;

/// A timing wrapper around one agent. `as_any`/`as_any_mut` forward to
/// the inner agent, so `sim.agent::<TasHost>(id)` works on wrapped agents.
struct Timed<A> {
    inner: A,
    tracer: Tracer,
}

impl<A: Agent<NetMsg> + Classify> Agent<NetMsg> for Timed<A> {
    fn on_event(&mut self, ev: Event<NetMsg>, ctx: &mut Ctx<'_, NetMsg>) {
        let (armed, inject) = {
            let t = self.tracer.borrow();
            (t.armed, t.inject)
        };
        if !armed {
            self.inner.on_event(ev, ctx);
            return;
        }
        let layer = A::layer(&ev);
        let t0 = Instant::now();
        self.inner.on_event(ev, ctx);
        if let (Ok(l), Some((target, delay))) = (layer, inject) {
            if l == target {
                let until = t0.elapsed() + delay;
                while t0.elapsed() < until {
                    std::hint::spin_loop();
                }
            }
        }
        let ns = t0.elapsed().as_nanos() as u64;
        let mut t = self.tracer.borrow_mut();
        match layer {
            Ok(l) => {
                let i = index(l);
                t.ns[i] += ns;
                t.events[i] += 1;
            }
            Err(kind) => {
                let what = format!("{}/kind {kind}", A::AGENT);
                if !t.unmapped.contains(&what) {
                    t.unmapped.push(what);
                }
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Registers `agent`, wrapped in [`Timed`] when the run is traced.
pub(crate) fn add<A: Agent<NetMsg> + Classify>(
    sim: &mut Sim<NetMsg>,
    agent: A,
    tracer: Option<&Tracer>,
) -> AgentId {
    match tracer {
        Some(t) => sim.add_agent(Box::new(Timed {
            inner: agent,
            tracer: Rc::clone(t),
        })),
        None => sim.add_agent(Box::new(agent)),
    }
}
