//! The one interface every engine drives: a [`Subject`] is a recoverable
//! structure shape described by the paper's operation contract (§2: invoke
//! an operation, crash anywhere, then call its `Recover` function with the
//! same arguments), its sequential specification, and the op generators
//! that the verification scripts and the timed workloads draw from.
//!
//! One impl exists per shape: [`SetSubject`] (every set implementation
//! through [`SetAlgo`]), [`PushPopSubject`] (the queue and stack, plain and
//! flat-combining alike through [`PushPop`]), [`ExchangerSubject`] and
//! [`HashmapSubject`]. [`crate::registry`] pairs them with algorithms and
//! builds them; the crash sweep, the schedule explorer, the timed runs and
//! the baseline are generic over this trait.

use std::marker::PhantomData;
use std::sync::Arc;

use linearize::{
    History, MapOp, MapRet, MapSpec, QueueOp, QueueRet, QueueSpec, SetOp, SetSpec, Spec, StackOp,
    StackRet, StackSpec,
};
use pmem::{SiteId, ThreadCtx};
use tracking::hashmap::HashMapConfig;
use tracking::{
    CombiningQueue, CombiningStack, RecoverableExchanger, RecoverableHashMap, RecoverableQueue,
    RecoverableStack,
};

use crate::adapter::SetAlgo;
use crate::workload::{Class, Mix};

/// Key universe of the set scripts (kept far below the [`SetSpec`] bitmap's
/// 64-key ceiling so the observation phase stays cheap).
pub const SET_KEYS: u64 = 12;

/// Key universe of the hashmap scripts. Paired with the deliberately tiny
/// [`HASHMAP_SWEEP_CFG`] (2 initial buckets, chains capped at 2) it forces
/// several level migrations *inside* the scripted window, so the exhaustive
/// sweep crashes the resize protocol at every publish / migrate / seal /
/// finish event, not just the bucket operations.
pub const MAP_KEYS: u64 = 12;

/// Hash-table geometry used by every sweep/explore case: small enough that
/// the 12-op script crosses multiple resizes.
pub const HASHMAP_SWEEP_CFG: HashMapConfig = HashMapConfig {
    initial_buckets: 2,
    max_chain: 2,
};

/// Spin budget of verified exchanger ops (small: keeps the event count per
/// op, and therefore the sweep, short while still exercising the wait loop).
pub(crate) const EXCHANGE_SPIN: usize = 6;

/// Spin budget of timed exchanger calls.
const CALL_SPIN: usize = 2;

/// Seed of the baseline rows.
const BENCH_SEED: u64 = 0xBA5E_11AE;

// -------------------------------------------------------------------- rng

/// xorshift64* (13/7/17) — the script and schedule generator; its streams
/// define every committed sweep and explore matrix.
pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

// ------------------------------------------------------------ generators

/// Who a verification script is generated for.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ScriptFor {
    /// The single-threaded crash sweep's script.
    Sweep,
    /// Thread `t` of an explored schedule.
    Thread(usize),
}

impl ScriptFor {
    /// The script's generator: the sweep seeds from `seed` alone; thread
    /// `t` mixes in `(t + 1) · salt`, with a salt per shape.
    pub(crate) fn rng(self, seed: u64, salt: u64) -> Rng {
        let seed = match self {
            ScriptFor::Sweep => seed,
            ScriptFor::Thread(t) => seed ^ (t as u64 + 1).wrapping_mul(salt),
        };
        Rng(splitmix64(seed) | 1)
    }

    /// The value a script's offers count up from: `sweep` for the sweep;
    /// thread `t` starts at `(t + 1) · 1000`, so the checker can tell whose
    /// element an operation observed.
    fn values_from(self, sweep: u64) -> u64 {
        match self {
            ScriptFor::Sweep => sweep,
            ScriptFor::Thread(t) => (t as u64 + 1) * 1000,
        }
    }
}

/// The value a timed add offers.
fn value(r: u64) -> u64 {
    (r >> 8) % 100_000 + 1
}

/// A subject's baseline row: `ops` calls drawn from `mix` over keys
/// `[1, keys]` with the generator seeded at `seed`, after `prefill` adds.
/// Counters restart after the prefill; a row without one also counts the
/// structure's construction.
#[derive(Copy, Clone, Debug)]
pub struct Bench {
    /// Operation mix.
    pub mix: Mix,
    /// Key universe.
    pub keys: u64,
    /// Adds before the measured region.
    pub prefill: u64,
    /// Generator seed of the measured calls (the prefill's is `seed ^ 0xF00D`).
    pub seed: u64,
}

// ---------------------------------------------------------------- subject

/// The operation type of a subject's specification.
pub type OpOf<Sub> = <<Sub as Subject>::S as Spec>::Op;
/// The response type of a subject's specification.
pub type RetOf<Sub> = <<Sub as Subject>::S as Spec>::Ret;

/// One recoverable structure under test.
///
/// `exec` is the post-prologue operation body (the harness issues
/// [`ThreadCtx::begin_op`] itself, so a crash inside the prologue is a
/// distinct, covered case); `recover` is the matching `*.Recover` function;
/// `observe` runs the post-recovery read-only phase, appending what it sees
/// to the history and checking quiescent structural invariants. `call` is
/// the operation as a client invokes it, which is what timed runs execute.
pub trait Subject: Send + Sync + Sized + 'static {
    /// The sequential specification the verdicts check against.
    type S: Spec<Op: Send + Sync, Ret: Send> + Default;

    /// The subject's baseline row.
    const BENCH: Bench;

    /// The operation body after the `CP_q := 0` prologue.
    fn exec(&self, ctx: &ThreadCtx, op: &OpOf<Self>) -> RetOf<Self>;

    /// The operation's recovery function.
    fn recover(&self, ctx: &ThreadCtx, op: &OpOf<Self>) -> RetOf<Self>;

    /// Structure-global repair before any per-operation recovery.
    fn recover_structure(&self) {}

    /// The post-recovery read-only phase.
    fn observe(&self, ctx: &ThreadCtx, h: &mut History<Self::S>) -> Result<(), String>;

    /// Verdict over a genuinely concurrent execution (the schedule
    /// explorer's oracle): the per-thread completed operations — including
    /// recovered responses of crash-interrupted ones — must, together with
    /// the post-run observation phase, form a linearizable history, and the
    /// structure must pass its quiescent invariants. The default is exactly
    /// that; the exchanger overrides it with a pairing oracle, because its
    /// sequential spec (`exchange → None`) only describes isolated threads.
    fn concurrent_verdict(
        &self,
        ctx: &ThreadCtx,
        recorded: &[CompletedOp<Self::S>],
    ) -> Result<(), String> {
        let mut h: History<Self::S> = History::new();
        for r in recorded {
            h.record_on(r.tid, r.op.clone(), r.ret.clone(), r.inv, r.res);
        }
        self.observe(ctx, &mut h)?;
        h.check(Self::S::default())
            .map(|_| ())
            .map_err(|e| format!("not linearizable: {e}"))
    }

    /// The operation as a client calls it, prologue included.
    fn call(&self, ctx: &ThreadCtx, op: &OpOf<Self>) -> RetOf<Self>;

    /// The `pwb` site table to register on the subject's pool.
    fn sites(&self) -> &'static [(SiteId, &'static str)] {
        &tracking::sites::SITES
    }

    /// The deterministic verification script of `len` operations.
    fn script(seed: u64, len: usize, who: ScriptFor) -> Vec<OpOf<Self>>;

    /// One timed operation of `mix` over keys `[1, keys]`, drawn from the
    /// random word `r`.
    fn draw(r: u64, mix: &Mix, keys: u64) -> OpOf<Self>;
}

/// One completed (or crash-recovered) operation of a concurrent execution,
/// as fed to [`Subject::concurrent_verdict`].
pub struct CompletedOp<S: Spec> {
    /// Logical (virtual) thread that ran the operation.
    pub tid: usize,
    /// The operation.
    pub op: S::Op,
    /// Its response.
    pub ret: S::Ret,
    /// Invocation stamp from the shared [`linearize::Clock`].
    pub inv: u64,
    /// Response stamp.
    pub res: u64,
}

// -------------------------------------------------------------------- set

/// Every set implementation, through [`SetAlgo`].
pub struct SetSubject(pub Arc<dyn SetAlgo>);

impl Subject for SetSubject {
    type S = SetSpec;

    const BENCH: Bench = Bench {
        mix: Mix {
            of: 10,
            read: 7,
            add: 2,
        },
        keys: 64,
        prefill: 32,
        seed: BENCH_SEED,
    };

    fn exec(&self, ctx: &ThreadCtx, op: &SetOp) -> bool {
        match *op {
            SetOp::Insert(k) => self.0.insert_started(ctx, k),
            SetOp::Delete(k) => self.0.delete_started(ctx, k),
            SetOp::Find(k) => self.0.find(ctx, k),
        }
    }

    fn recover(&self, ctx: &ThreadCtx, op: &SetOp) -> bool {
        match *op {
            SetOp::Insert(k) => self.0.recover_insert(ctx, k),
            SetOp::Delete(k) => self.0.recover_delete(ctx, k),
            SetOp::Find(k) => self.0.recover_find(ctx, k),
        }
    }

    fn recover_structure(&self) {
        self.0.recover_structure();
    }

    fn observe(&self, ctx: &ThreadCtx, h: &mut History<SetSpec>) -> Result<(), String> {
        let mut present = 0usize;
        for key in 1..=SET_KEYS {
            let found = self.0.find(ctx, key);
            present += found as usize;
            let t = h.invoke(0, SetOp::Find(key));
            h.ret(t, found);
        }
        let len = self.0.len();
        if len != present {
            return Err(format!(
                "structural check: len() = {len} but {present} keys answer find"
            ));
        }
        Ok(())
    }

    fn call(&self, ctx: &ThreadCtx, op: &SetOp) -> bool {
        match *op {
            SetOp::Insert(k) => self.0.insert(ctx, k),
            SetOp::Delete(k) => self.0.delete(ctx, k),
            SetOp::Find(k) => self.0.find(ctx, k),
        }
    }

    fn sites(&self) -> &'static [(SiteId, &'static str)] {
        self.0.sites()
    }

    /// Inserts, deletes and finds at 4 : 3 : 1 over the shared key
    /// universe — shared keys are the point: conflicting inserts/deletes
    /// of the same key on different threads are what the checker bites on.
    fn script(seed: u64, len: usize, who: ScriptFor) -> Vec<SetOp> {
        let mut rng = who.rng(seed, 0xA5A5_1234);
        (0..len)
            .map(|_| {
                let r = rng.next();
                let key = r % SET_KEYS + 1;
                match (r >> 32) % 8 {
                    0..=3 => SetOp::Insert(key),
                    4..=6 => SetOp::Delete(key),
                    _ => SetOp::Find(key),
                }
            })
            .collect()
    }

    fn draw(r: u64, mix: &Mix, keys: u64) -> SetOp {
        let key = r % keys + 1;
        match mix.class(r >> 32) {
            Class::Read => SetOp::Find(key),
            Class::Add => SetOp::Insert(key),
            Class::Remove => SetOp::Delete(key),
        }
    }
}

// ----------------------------------------------------------- queue, stack

/// The detectable add/remove pair the queue and stack shapes share, plain
/// and flat-combining alike (`push` is `enqueue` on the queues).
pub trait PushPop: Send + Sync + 'static {
    /// Adds `v`.
    fn push(&self, ctx: &ThreadCtx, v: u64);
    /// Removes an element.
    fn pop(&self, ctx: &ThreadCtx) -> Option<u64>;
    /// [`Self::push`] without the `CP_q := 0` prologue.
    fn push_started(&self, ctx: &ThreadCtx, v: u64);
    /// [`Self::pop`] without the `CP_q := 0` prologue.
    fn pop_started(&self, ctx: &ThreadCtx) -> Option<u64>;
    /// `Push.Recover`.
    fn recover_push(&self, ctx: &ThreadCtx, v: u64);
    /// `Pop.Recover`.
    fn recover_pop(&self, ctx: &ThreadCtx) -> Option<u64>;
    /// Structure-global repair: the combining variants clear the volatile
    /// combiner lock / request / ready lines a crash may leave behind,
    /// before any per-op recovery, or a surviving lock wedges it.
    fn recover_structure(&self) {}
    /// Quiescent element count.
    fn len(&self) -> usize;
    /// Is the structure empty (quiescent)?
    fn is_empty(&self) -> bool;
}

/// Implements [`PushPop`] by forwarding to the named inherent methods.
macro_rules! push_pop {
    ($ty:ty: $push:ident, $pop:ident, $push_started:ident, $pop_started:ident,
     $recover_push:ident, $recover_pop:ident $(, $recover_structure:ident)?) => {
        impl PushPop for $ty {
            fn push(&self, ctx: &ThreadCtx, v: u64) {
                <$ty>::$push(self, ctx, v)
            }
            fn pop(&self, ctx: &ThreadCtx) -> Option<u64> {
                <$ty>::$pop(self, ctx)
            }
            fn push_started(&self, ctx: &ThreadCtx, v: u64) {
                <$ty>::$push_started(self, ctx, v)
            }
            fn pop_started(&self, ctx: &ThreadCtx) -> Option<u64> {
                <$ty>::$pop_started(self, ctx)
            }
            fn recover_push(&self, ctx: &ThreadCtx, v: u64) {
                <$ty>::$recover_push(self, ctx, v)
            }
            fn recover_pop(&self, ctx: &ThreadCtx) -> Option<u64> {
                <$ty>::$recover_pop(self, ctx)
            }
            $(fn recover_structure(&self) {
                <$ty>::$recover_structure(self)
            })?
            fn len(&self) -> usize {
                <$ty>::len(self)
            }
            fn is_empty(&self) -> bool {
                <$ty>::is_empty(self)
            }
        }
    };
}

push_pop!(RecoverableQueue: enqueue, dequeue, enqueue_started, dequeue_started,
    recover_enqueue, recover_dequeue);
push_pop!(CombiningQueue: enqueue, dequeue, enqueue_started, dequeue_started,
    recover_enqueue, recover_dequeue, recover_structure);
push_pop!(RecoverableStack: push, pop, push_started, pop_started, recover_push, recover_pop);
push_pop!(CombiningStack: push, pop, push_started, pop_started, recover_push, recover_pop,
    recover_structure);

/// The FIFO and LIFO specifications in one add/remove vocabulary, with the
/// constants of their shape's scripts.
pub trait PushPopSpec: Spec<Op: Send + Sync, Ret: Send> + Default + 'static {
    /// Salt of an explored thread's script seed.
    const SALT: u64;
    /// The value the sweep script's adds count up from.
    const VALUES: u64;
    /// The operation: `Some(v)` adds `v`, `None` removes.
    fn op(add: Option<u64>) -> Self::Op;
    /// What `op` adds, if it is an add.
    fn adds(op: &Self::Op) -> Option<u64>;
    /// The response: `None` for an add, `Some(removed)` for a remove.
    fn ret(removed: Option<Option<u64>>) -> Self::Ret;
}

impl PushPopSpec for QueueSpec {
    const SALT: u64 = 0x5EED_4321;
    const VALUES: u64 = 100;
    fn op(add: Option<u64>) -> QueueOp {
        add.map_or(QueueOp::Dequeue, QueueOp::Enqueue)
    }
    fn adds(op: &QueueOp) -> Option<u64> {
        match *op {
            QueueOp::Enqueue(v) => Some(v),
            QueueOp::Dequeue => None,
        }
    }
    fn ret(removed: Option<Option<u64>>) -> QueueRet {
        removed.map_or(QueueRet::Enqueued, QueueRet::Dequeued)
    }
}

impl PushPopSpec for StackSpec {
    const SALT: u64 = 0x57AC_8765;
    const VALUES: u64 = 200;
    fn op(add: Option<u64>) -> StackOp {
        add.map_or(StackOp::Pop, StackOp::Push)
    }
    fn adds(op: &StackOp) -> Option<u64> {
        match *op {
            StackOp::Push(v) => Some(v),
            StackOp::Pop => None,
        }
    }
    fn ret(removed: Option<Option<u64>>) -> StackRet {
        removed.map_or(StackRet::Pushed, StackRet::Popped)
    }
}

/// The queue and stack shapes, plain or flat-combining: the add/remove
/// pair `P` checked against the specification `S`.
pub struct PushPopSubject<P, S>(pub P, PhantomData<fn() -> S>);

impl<P, S> PushPopSubject<P, S> {
    /// The subject over `p`.
    pub fn new(p: P) -> Self {
        PushPopSubject(p, PhantomData)
    }
}

/// The FIFO queue shape.
pub type QueueSubject<Q> = PushPopSubject<Q, QueueSpec>;
/// The LIFO stack shape.
pub type StackSubject<S> = PushPopSubject<S, StackSpec>;

impl<P: PushPop, S: PushPopSpec> Subject for PushPopSubject<P, S> {
    type S = S;

    /// Adds and removes at 3 : 2.
    const BENCH: Bench = Bench {
        mix: Mix {
            of: 5,
            read: 0,
            add: 3,
        },
        keys: 0,
        prefill: 0,
        seed: BENCH_SEED ^ 0xCAFE,
    };

    fn exec(&self, ctx: &ThreadCtx, op: &S::Op) -> S::Ret {
        S::ret(match S::adds(op) {
            Some(v) => {
                self.0.push_started(ctx, v);
                None
            }
            None => Some(self.0.pop_started(ctx)),
        })
    }

    fn recover(&self, ctx: &ThreadCtx, op: &S::Op) -> S::Ret {
        S::ret(match S::adds(op) {
            Some(v) => {
                self.0.recover_push(ctx, v);
                None
            }
            None => Some(self.0.recover_pop(ctx)),
        })
    }

    fn recover_structure(&self) {
        self.0.recover_structure();
    }

    /// Drains the structure: each removal is a recorded operation, ending
    /// with the observation that it is empty.
    fn observe(&self, ctx: &ThreadCtx, h: &mut History<S>) -> Result<(), String> {
        for _ in 0..self.0.len() + 1 {
            let v = self.0.pop(ctx);
            let t = h.invoke(0, S::op(None));
            h.ret(t, S::ret(Some(v)));
            if v.is_none() {
                break;
            }
        }
        if !self.0.is_empty() {
            return Err("structural check: not empty after drain".into());
        }
        Ok(())
    }

    fn call(&self, ctx: &ThreadCtx, op: &S::Op) -> S::Ret {
        S::ret(match S::adds(op) {
            Some(v) => {
                self.0.push(ctx, v);
                None
            }
            None => Some(self.0.pop(ctx)),
        })
    }

    /// Adds and removes at 3 : 2, the adds offering increasing values.
    fn script(seed: u64, len: usize, who: ScriptFor) -> Vec<S::Op> {
        let mut rng = who.rng(seed, S::SALT);
        let mut next = who.values_from(S::VALUES);
        (0..len)
            .map(|_| {
                S::op((rng.next() % 5 < 3).then(|| {
                    next += 1;
                    next
                }))
            })
            .collect()
    }

    fn draw(r: u64, mix: &Mix, _keys: u64) -> S::Op {
        S::op((mix.class(r) == Class::Add).then(|| value(r)))
    }
}

// -------------------------------------------------------------- exchanger

/// A lone thread can never meet a partner, so every exchange must complete
/// unmatched (`None`) and leave the slot free — which is exactly what a
/// detectably-recovered exchange must also conclude after a crash.
#[derive(Clone, Default)]
pub struct ExchangeSpec;

impl Spec for ExchangeSpec {
    type Op = u64;
    type Ret = Option<u64>;
    type Digest = ();

    fn apply(&mut self, _op: &u64) -> Option<u64> {
        None
    }

    fn digest(&self) {}
}

/// The elimination exchanger; an operation is the value it offers.
pub struct ExchangerSubject(pub RecoverableExchanger);

impl Subject for ExchangerSubject {
    type S = ExchangeSpec;

    const BENCH: Bench = Bench {
        mix: Mix::ADD,
        keys: 0,
        prefill: 0,
        seed: BENCH_SEED ^ 0xCAFE,
    };

    fn exec(&self, ctx: &ThreadCtx, op: &u64) -> Option<u64> {
        self.0.exchange_started(ctx, *op, EXCHANGE_SPIN)
    }

    fn recover(&self, ctx: &ThreadCtx, op: &u64) -> Option<u64> {
        self.0.recover_exchange(ctx, *op, EXCHANGE_SPIN)
    }

    fn observe(&self, _ctx: &ThreadCtx, _h: &mut History<ExchangeSpec>) -> Result<(), String> {
        if !self.0.is_free() {
            return Err("structural check: exchanger slot not free after recovery".into());
        }
        Ok(())
    }

    /// Pairing oracle: every exchange that returned `Some(v)` must have a
    /// unique partner — the operation that offered `v` — whose own result
    /// is this operation's offer, on a *different* thread, with genuinely
    /// overlapping intervals (a rendezvous has no sequential witness).
    /// Offers are unique across the run, so the partner map is well-defined.
    /// Unmatched (`None`) results carry no obligation; the slot must end
    /// free either way.
    fn concurrent_verdict(
        &self,
        _ctx: &ThreadCtx,
        recorded: &[CompletedOp<ExchangeSpec>],
    ) -> Result<(), String> {
        for r in recorded {
            let Some(got) = r.ret else { continue };
            let partner = recorded
                .iter()
                .find(|p| p.op == got)
                .ok_or_else(|| format!("t{} exchanged value {got} nobody offered", r.tid))?;
            if partner.tid == r.tid {
                return Err(format!(
                    "t{} exchanged value {got} with itself (offer {})",
                    r.tid, r.op
                ));
            }
            if partner.ret != Some(r.op) {
                return Err(format!(
                    "asymmetric pairing: t{} offered {} and got {got}, but t{} \
                     offering {got} got {:?}",
                    r.tid, r.op, partner.tid, partner.ret
                ));
            }
            if !(r.inv < partner.res && partner.inv < r.res) {
                return Err(format!(
                    "t{} [{}, {}] paired with t{} [{}, {}] without overlapping — \
                     a rendezvous must be concurrent",
                    r.tid, r.inv, r.res, partner.tid, partner.inv, partner.res
                ));
            }
        }
        if !self.0.is_free() {
            return Err("structural check: exchanger slot not free after the run".into());
        }
        Ok(())
    }

    fn call(&self, ctx: &ThreadCtx, op: &u64) -> Option<u64> {
        self.0.exchange(ctx, *op, CALL_SPIN)
    }

    /// Every offer is globally unique, so the pairing oracle's partner map
    /// is well-defined. The sweep's lone thread offers twice, whatever
    /// `len`: every exchange times out the same way.
    fn script(_seed: u64, len: usize, who: ScriptFor) -> Vec<u64> {
        match who {
            ScriptFor::Sweep => vec![101, 202],
            ScriptFor::Thread(_) => {
                let first = who.values_from(0);
                (0..len as u64).map(|i| first + i).collect()
            }
        }
    }

    fn draw(r: u64, _mix: &Mix, _keys: u64) -> u64 {
        value(r)
    }
}

// ---------------------------------------------------------------- hashmap

/// The resizable hash table: bucket ops *and* the resize protocol run
/// through Tracking.
pub struct HashmapSubject(pub RecoverableHashMap);

impl Subject for HashmapSubject {
    type S = MapSpec;

    const BENCH: Bench = Bench {
        mix: Mix {
            of: 10,
            read: 6,
            add: 3,
        },
        keys: 256,
        prefill: 0,
        seed: BENCH_SEED ^ 0xCAFE,
    };

    fn exec(&self, ctx: &ThreadCtx, op: &MapOp) -> MapRet {
        match *op {
            MapOp::Put(k, v) => MapRet::Put(self.0.put_started(ctx, k, v)),
            MapOp::Remove(k) => MapRet::Removed(self.0.remove_started(ctx, k)),
            MapOp::Get(k) => MapRet::Got(self.0.get(ctx, k)),
        }
    }

    fn recover(&self, ctx: &ThreadCtx, op: &MapOp) -> MapRet {
        match *op {
            MapOp::Put(k, v) => MapRet::Put(self.0.recover_put(ctx, k, v)),
            MapOp::Remove(k) => MapRet::Removed(self.0.recover_remove(ctx, k)),
            MapOp::Get(k) => MapRet::Got(self.0.recover_get(ctx, k)),
        }
    }

    fn observe(&self, ctx: &ThreadCtx, h: &mut History<MapSpec>) -> Result<(), String> {
        let mut present = 0usize;
        for key in 1..=MAP_KEYS {
            let got = self.0.get(ctx, key);
            present += got.is_some() as usize;
            let t = h.invoke(0, MapOp::Get(key));
            h.ret(t, MapRet::Got(got));
        }
        let len = self.0.len();
        if len != present {
            return Err(format!(
                "structural check: len() = {len} but {present} keys answer get"
            ));
        }
        // `check_invariants` walks every bucket of the current level
        // (sorted chains, bucket-hash residency, no stale tags, no pending
        // next level) and panics on violation; surface that as a verdict,
        // not a sweep-killing panic.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.0.check_invariants()))
            .map_err(|p| {
                let msg = p
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| p.downcast_ref::<&str>().copied())
                    .unwrap_or("invariant panic");
                format!("structural check: {msg}")
            })?;
        Ok(())
    }

    fn call(&self, ctx: &ThreadCtx, op: &MapOp) -> MapRet {
        match *op {
            MapOp::Put(k, v) => MapRet::Put(self.0.put(ctx, k, v)),
            MapOp::Remove(k) => MapRet::Removed(self.0.remove(ctx, k)),
            MapOp::Get(k) => MapRet::Got(self.0.get(ctx, k)),
        }
    }

    /// Put-heavy so the table grows through resizes. The sweep puts,
    /// removes and gets at 5 : 2 : 1; in an explored schedule thread 0
    /// only puts (driving chains past the resize trigger) while the others
    /// mix at 4 : 3 : 1 on the same keys — so resizes race bucket
    /// operations and other resizes.
    fn script(seed: u64, len: usize, who: ScriptFor) -> Vec<MapOp> {
        let mut rng = who.rng(seed, 0x4A5F_9876);
        let (puts, values) = match who {
            ScriptFor::Sweep => (5, 100),
            ScriptFor::Thread(0) => (8, 100),
            ScriptFor::Thread(_) => (4, 200),
        };
        (0..len)
            .map(|_| {
                let r = rng.next();
                let key = r % MAP_KEYS + 1;
                match (r >> 32) % 8 {
                    c if c < puts => MapOp::Put(key, (r >> 40) % 90 + values),
                    0..=6 => MapOp::Remove(key),
                    _ => MapOp::Get(key),
                }
            })
            .collect()
    }

    fn draw(r: u64, mix: &Mix, keys: u64) -> MapOp {
        let key = r % keys + 1;
        match mix.class(r >> 32) {
            Class::Read => MapOp::Get(key),
            Class::Add => MapOp::Put(key, value(r)),
            Class::Remove => MapOp::Remove(key),
        }
    }
}
