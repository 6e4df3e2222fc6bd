//! Warp-vectorized interpreter: one machine steps a whole warp of lanes in
//! lock-step, masking off lanes whose control flow went another way.
//!
//! Instead of one [`Interp`] per thread re-walking the region tree, a
//! [`WarpInterp`] keeps a *single* frame stack and a flat value-major
//! register file `vals[value * stride + lane]`, so the per-op cost is one
//! decoded-op dispatch plus a tight loop over the *active* lanes.
//!
//! **Split and reconverge.** When the active lanes disagree on an `if`
//! condition or on a `for` loop's trip count or step, the warp splits them
//! into groups of equal key (groups ordered by their first lane) and runs
//! the divergent op X once per group, with only that group active. Lanes
//! that agree on a loop's trip count and step run it together even when
//! their bounds differ: each lane counts its own induction variable. The IR
//! is structured, so a group has finished exactly when the program counter
//! is back at X+1 at X's frame depth: the next group then re-executes X, and
//! after the last group the warp reconverges on the lanes it had before the
//! split. Splits nest as a stack. Lane counters are bumped only for active
//! lanes, so every lane's [`ThreadCounters`] — and with them the merged
//! statistics and the simulated timing — are the ones scalar stepping
//! produces.
//!
//! **Despool.** What stays rare falls back to per-lane scalar execution: an
//! `alloc` (allocation order must match per-lane execution), a `while`
//! condition the active lanes disagree on, and a `barrier` or `return`
//! reached under a split. The warp reports [`WarpPhase::Despool`] with the
//! program counter still *at* that op, before any state is mutated, and the
//! launcher copies every lane into a scalar [`Interp`]
//! ([`WarpInterp::despool_into`]) that replays the op with identical
//! semantics, counters and memory effects. Inside a split each lane gets
//! its own frame stack: lanes of the running group stand at the current op,
//! lanes of pending groups at the divergent op, and lanes of finished
//! groups just after it; each loop frame carries the lane's own induction
//! variable and upper bound.

use std::sync::Arc;

use respec_ir::{Function, OpId, RegionId, Value};

use crate::decoded::{slot_value, DecodedOp, DecodedProgram, Slot};
use crate::interp::{
    eval_binary, eval_cmp, eval_unary, want_int, want_mem, Frame, FrameKind, Interp, MemEvent,
    SimError, ThreadCounters,
};
use crate::memory::DeviceMemory;
use crate::value::{RtVal, Store};

/// Execution context for one warp phase. Mirrors `StepCx` but carries one
/// counter set per lane; warps never record allocations (alloc despools).
pub(crate) struct WarpCx<'a> {
    pub(crate) mem: &'a mut DeviceMemory,
    /// Value stores of enclosing scopes (innermost first).
    pub(crate) parents: &'a [&'a Store],
    /// Per-lane counters; `counters.len()` equals the lane count.
    pub(crate) counters: &'a mut [ThreadCounters],
}

/// Outcome of [`WarpInterp::run_phase`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum WarpPhase {
    /// Every lane finished the scope.
    Done,
    /// Every lane reached the same barrier and suspended.
    Barrier,
    /// The warp reached an op it does not run as a warp (see the module
    /// docs); the program counter points at it. Despool each lane into a
    /// scalar interpreter and continue per-lane.
    Despool,
}

enum WarpStep {
    Ran,
    Done,
    Barrier,
    Despool,
}

/// One divergent `if` or `for` whose lane groups run one after another.
#[derive(Default)]
struct Split {
    /// Frame-stack depth whose top frame holds the divergent op.
    depth: usize,
    /// Index of the divergent op in that frame's region.
    pc: usize,
    /// The lanes active before the split, grouped: group `g` is
    /// `lanes[ends[g - 1]..ends[g]]`, each group ascending.
    lanes: Vec<u16>,
    ends: Vec<u16>,
    /// Index of the running group.
    group: usize,
}

impl Split {
    fn group_lanes(&self, g: usize) -> &[u16] {
        let start = if g == 0 { 0 } else { self.ends[g - 1] as usize };
        &self.lanes[start..self.ends[g] as usize]
    }
}

/// Computes a divergent op's split key for one lane from the lane's
/// integer operands; lanes with equal keys run the op together.
type SplitKey = fn([i64; 3]) -> Result<(i64, i64), SimError>;

/// The split key of an `if`: the truth value of its condition.
fn if_key([cond, _, _]: [i64; 3]) -> Result<(i64, i64), SimError> {
    Ok(((cond != 0) as i64, 0))
}

/// The split key of a `for`: its trip count and step. Lanes that agree on
/// both run the same iterations in lock-step, each counting its induction
/// variable from its own lower bound.
fn for_key([lb, ub, step]: [i64; 3]) -> Result<(i64, i64), SimError> {
    if step <= 0 {
        return Err(SimError::new("for loop step must be positive"));
    }
    let trips = if lb < ub {
        (i128::from(ub) - i128::from(lb) + i128::from(step) - 1) / i128::from(step)
    } else {
        0
    };
    Ok((i64::try_from(trips).unwrap_or(i64::MAX), step))
}

/// A warp of lanes executing one region tree in lock-step.
pub(crate) struct WarpInterp<'f> {
    func: &'f Function,
    program: Arc<DecodedProgram>,
    /// Lane capacity (target warp width); `lanes <= stride`.
    stride: usize,
    lanes: usize,
    frames: Vec<Frame>,
    /// Value-major register file: `vals[value * stride + lane]`.
    vals: Vec<RtVal>,
    /// Shared binding epochs: `epochs[value] == cur` means bound. A value
    /// defined under a split is bound for the lanes of the groups that ran
    /// its definition; SSA dominance keeps the other lanes from reading it.
    epochs: Vec<u32>,
    cur: u32,
    done: bool,
    /// Lanes that execute the current op, ascending.
    active: Vec<u16>,
    /// Split stack, innermost last: `splits[..nsplits]` is live, the rest
    /// is kept for its buffers.
    splits: Vec<Split>,
    nsplits: usize,
    /// Splits made since construction (an observability counter).
    split_count: u64,
    /// Per active lane, the control-flow key of the divergent op.
    keys: Vec<(i64, i64)>,
    /// Gather buffer, operand-major: `scratch[k * active.len() + i]`.
    scratch: Vec<RtVal>,
}

impl<'f> WarpInterp<'f> {
    pub(crate) fn new(
        func: &'f Function,
        program: Arc<DecodedProgram>,
        stride: usize,
    ) -> WarpInterp<'f> {
        let stride = stride.max(1);
        WarpInterp {
            func,
            program,
            stride,
            lanes: 0,
            frames: Vec::new(),
            vals: vec![RtVal::Int(0); func.num_values() * stride],
            epochs: vec![0; func.num_values()],
            cur: 0,
            done: false,
            active: Vec::with_capacity(stride),
            splits: Vec::new(),
            nsplits: 0,
            split_count: 0,
            keys: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Rewinds the warp to the start of `region` with `lanes` active lanes,
    /// clearing all bindings without reallocating.
    pub(crate) fn restart(&mut self, region: RegionId, lanes: usize) {
        debug_assert!(lanes >= 1 && lanes <= self.stride && lanes <= u16::MAX as usize);
        self.lanes = lanes;
        self.active.clear();
        self.active.extend(0..lanes as u16);
        self.nsplits = 0;
        self.frames.clear();
        self.frames.push(Frame {
            region,
            idx: 0,
            kind: FrameKind::Root,
        });
        self.cur = self.cur.wrapping_add(1);
        if self.cur == 0 {
            self.epochs.fill(0);
            self.cur = 1;
        }
        self.done = false;
    }

    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// Divergent ops this machine has split its lanes at since it was built.
    pub(crate) fn split_count(&self) -> u64 {
        self.split_count
    }

    /// Binds `v` per lane (e.g. thread ids) before stepping.
    pub(crate) fn set_with(&mut self, v: Value, mut f: impl FnMut(usize) -> RtVal) {
        let base = v.index() * self.stride;
        for lane in 0..self.lanes {
            self.vals[base + lane] = f(lane);
        }
        self.epochs[v.index()] = self.cur;
    }

    /// Copies one lane's live state into a scalar interpreter: the lane's
    /// own frame stack and every epoch-current value. Outside splits that
    /// stack is the warp's, with the program counter at the op the warp
    /// stopped on. A lane outside the running group of a split resumes at
    /// the split's divergent op if its group is pending, or just after it
    /// if its group has finished; the outermost such split decides.
    pub(crate) fn despool_into(&self, lane: usize, target: &mut Interp<'f>) {
        let mut frames = &self.frames[..];
        let mut pc = frames.last().map_or(0, |f| f.idx);
        for s in &self.splits[..self.nsplits] {
            let Some(pos) = s.lanes.iter().position(|&l| l as usize == lane) else {
                break;
            };
            let group = s.ends.iter().position(|&e| pos < e as usize).unwrap_or(0);
            if group != s.group {
                frames = &self.frames[..s.depth];
                pc = if group < s.group { s.pc + 1 } else { s.pc };
                break;
            }
        }
        // The warp's loop frames hold the lead lane's bounds; give the lane
        // its own induction variable and upper bound.
        for frame in target.adopt_frames(frames, pc) {
            let FrameKind::For { op, iv, ub, .. } = &mut frame.kind else {
                continue;
            };
            let DecodedOp::For {
                ub: ub_slot, body, ..
            } = &self.program.steps[op.index()]
            else {
                continue;
            };
            let lane_int = |v: usize| match self.vals[v * self.stride + lane] {
                RtVal::Int(i) if self.epochs[v] == self.cur => Some(i),
                _ => None,
            };
            *iv = lane_int(self.func.region(*body).args[0].index()).unwrap_or(*iv);
            *ub = lane_int(*ub_slot as usize).unwrap_or(*ub);
        }
        for (v, &e) in self.epochs.iter().enumerate() {
            if e == self.cur {
                target
                    .store
                    .set(Value::from_index(v), self.vals[v * self.stride + lane]);
            }
        }
    }

    #[inline]
    fn get(&self, parents: &[&Store], slot: Slot, lane: usize) -> Result<RtVal, SimError> {
        let v = slot as usize;
        if self.epochs[v] == self.cur {
            return Ok(self.vals[v * self.stride + lane]);
        }
        for p in parents {
            if let Some(val) = p.get(slot_value(slot)) {
                return Ok(val);
            }
        }
        Err(SimError::new(format!(
            "use of unbound value {:?}",
            slot_value(slot)
        )))
    }

    #[inline]
    fn stamp(&mut self, slot: Slot) {
        self.epochs[slot as usize] = self.cur;
    }

    #[inline]
    fn bump_active(&self, counters: &mut [ThreadCounters], op: OpId) {
        for &lane in &self.active {
            counters[lane as usize].bump(op);
        }
    }

    fn set_uniform(&mut self, v: Value, val: RtVal) {
        let base = v.index() * self.stride;
        for &lane in &self.active {
            self.vals[base + lane as usize] = val;
        }
        self.epochs[v.index()] = self.cur;
    }

    /// Gathers `slots` per active lane into the scratch buffer,
    /// operand-major.
    fn gather(&mut self, parents: &[&Store], slots: &[Slot]) -> Result<usize, SimError> {
        self.scratch.clear();
        for &s in slots {
            for i in 0..self.active.len() {
                let v = self.get(parents, s, self.active[i] as usize)?;
                self.scratch.push(v);
            }
        }
        Ok(slots.len())
    }

    /// Binds gathered scratch chunks to `targets`, truncating to the shorter
    /// list exactly like the scalar interpreter's `zip`.
    fn scatter(&mut self, targets: &[Value], count: usize) {
        let n = targets.len().min(count);
        let width = self.active.len();
        for (k, &t) in targets.iter().take(n).enumerate() {
            let base = t.index() * self.stride;
            for (i, &lane) in self.active.iter().enumerate() {
                self.vals[base + lane as usize] = self.scratch[k * width + i];
            }
            self.epochs[t.index()] = self.cur;
        }
    }

    /// Peeks an integer in every active lane; `Ok(None)` means the lanes
    /// disagree (or a non-lead lane holds a non-integer — the scalar replay
    /// surfaces that lane's own error). Reads only; no counters move.
    fn peek_uniform_int(&self, parents: &[&Store], slot: Slot) -> Result<Option<i64>, SimError> {
        let v0 = want_int(self.get(parents, slot, self.active[0] as usize)?)?;
        for &lane in &self.active[1..] {
            match self.get(parents, slot, lane as usize)?.try_int() {
                Some(v) if v == v0 => {}
                _ => return Ok(None),
            }
        }
        Ok(Some(v0))
    }

    /// Fills `keys` with one control-flow key per active lane, computed by
    /// `key` from the lane's integer values of `slots` (unused entries are
    /// 0). Returns whether every active lane has the same key.
    fn fill_keys(
        &mut self,
        parents: &[&Store],
        slots: &[Slot],
        key: SplitKey,
    ) -> Result<bool, SimError> {
        self.keys.clear();
        for i in 0..self.active.len() {
            let lane = self.active[i] as usize;
            let mut vals = [0i64; 3];
            for (v, &s) in vals.iter_mut().zip(slots) {
                *v = want_int(self.get(parents, s, lane)?)?;
            }
            self.keys.push(key(vals)?);
        }
        Ok(self.keys.iter().all(|k| *k == self.keys[0]))
    }

    /// Splits the active lanes at the op under the program counter into
    /// groups of equal key (see [`WarpInterp::fill_keys`]), ordered by
    /// their first lane, and activates the first group.
    fn push_split(&mut self) {
        if self.splits.len() == self.nsplits {
            self.splits.push(Split::default());
        }
        let s = &mut self.splits[self.nsplits];
        self.nsplits += 1;
        self.split_count += 1;
        s.depth = self.frames.len();
        s.pc = self.frames.last().expect("frame stack non-empty").idx;
        s.group = 0;
        s.lanes.clear();
        s.ends.clear();
        for (i, key) in self.keys.iter().enumerate() {
            if self.keys[..i].contains(key) {
                continue;
            }
            for (j, other) in self.keys.iter().enumerate().skip(i) {
                if other == key {
                    s.lanes.push(self.active[j]);
                }
            }
            s.ends.push(s.lanes.len() as u16);
        }
        self.active.clear();
        self.active.extend_from_slice(s.group_lanes(0));
    }

    /// Runs after every step under a split: once the running group is back
    /// just after the divergent op, activates the next group (which
    /// re-executes the op) or, after the last group, reconverges.
    fn reconverge(&mut self) {
        while self.nsplits > 0 {
            let s = &mut self.splits[self.nsplits - 1];
            if self.frames.len() != s.depth || self.frames[s.depth - 1].idx != s.pc + 1 {
                return;
            }
            s.group += 1;
            self.active.clear();
            if s.group < s.ends.len() {
                self.active.extend_from_slice(s.group_lanes(s.group));
                self.frames[s.depth - 1].idx = s.pc;
                return;
            }
            self.active.extend_from_slice(&s.lanes);
            self.active.sort_unstable();
            self.nsplits -= 1;
        }
    }

    /// Runs until a barrier, a despool, or completion.
    pub(crate) fn run_phase(&mut self, cx: &mut WarpCx<'_>) -> Result<WarpPhase, SimError> {
        if self.done {
            return Ok(WarpPhase::Done);
        }
        let program = Arc::clone(&self.program);
        loop {
            match self.step_in(&program, cx)? {
                WarpStep::Ran => {
                    if self.nsplits > 0 {
                        self.reconverge();
                    }
                }
                WarpStep::Done => return Ok(WarpPhase::Done),
                WarpStep::Barrier => return Ok(WarpPhase::Barrier),
                WarpStep::Despool => return Ok(WarpPhase::Despool),
            }
        }
    }

    fn step_in(
        &mut self,
        program: &DecodedProgram,
        cx: &mut WarpCx<'_>,
    ) -> Result<WarpStep, SimError> {
        let func = self.func;
        let frame = *self.frames.last().expect("non-done warp has frames");
        let ops = &func.region(frame.region).ops;
        debug_assert!(frame.idx < ops.len(), "regions are terminator-closed");
        let op_id = ops[frame.idx];
        let decoded = &program.steps[op_id.index()];

        // Terminators handle the frame stack themselves.
        match decoded {
            DecodedOp::Yield { vals } => {
                let n = self.gather(cx.parents, vals)?;
                let fr = self.frames.pop().expect("frame stack non-empty");
                match fr.kind {
                    FrameKind::Root => {
                        self.done = true;
                        return Ok(WarpStep::Done);
                    }
                    FrameKind::For {
                        op: for_op,
                        iv,
                        ub,
                        step,
                    } => {
                        // Loop back-edge: one branch issue per lane.
                        self.bump_active(cx.counters, op_id);
                        let next = iv + step;
                        let body = func.op(for_op).regions[0];
                        if next < ub {
                            let arg0 = func.region(body).args[0];
                            let base = arg0.index() * self.stride;
                            for &lane in &self.active {
                                if let RtVal::Int(v) = &mut self.vals[base + lane as usize] {
                                    *v += step;
                                }
                            }
                            self.scatter(&func.region(body).args[1..], n);
                            self.frames.push(Frame {
                                region: body,
                                idx: 0,
                                kind: FrameKind::For {
                                    op: for_op,
                                    iv: next,
                                    ub,
                                    step,
                                },
                            });
                        } else {
                            self.scatter(&func.op(for_op).results, n);
                        }
                    }
                    FrameKind::If { op: if_op } => {
                        self.scatter(&func.op(if_op).results, n);
                    }
                    FrameKind::Alt => {}
                    FrameKind::WhileCond { .. } => {
                        return Err(SimError::new(
                            "while condition region must end in `condition`",
                        ))
                    }
                    FrameKind::WhileBody { op: while_op } => {
                        let cond_region = func.op(while_op).regions[0];
                        self.scatter(&func.region(cond_region).args, n);
                        self.frames.push(Frame {
                            region: cond_region,
                            idx: 0,
                            kind: FrameKind::WhileCond { op: while_op },
                        });
                    }
                }
                return Ok(WarpStep::Ran);
            }
            DecodedOp::Condition { flag, vals } => {
                // Despool checkpoint: peek the flag before mutating.
                let Some(f0) = self.peek_uniform_int(cx.parents, *flag)? else {
                    return Ok(WarpStep::Despool);
                };
                let taken = f0 != 0;
                let n = self.gather(cx.parents, vals)?;
                let fr = self.frames.pop().expect("frame stack non-empty");
                let while_op = match fr.kind {
                    FrameKind::WhileCond { op } => op,
                    _ => return Err(SimError::new("`condition` outside while condition region")),
                };
                self.bump_active(cx.counters, op_id);
                if taken {
                    let body = *func
                        .op(while_op)
                        .regions
                        .get(1)
                        .ok_or_else(|| SimError::new("while without a body region"))?;
                    self.scatter(&func.region(body).args, n);
                    self.frames.push(Frame {
                        region: body,
                        idx: 0,
                        kind: FrameKind::WhileBody { op: while_op },
                    });
                } else {
                    self.scatter(&func.op(while_op).results, n);
                }
                return Ok(WarpStep::Ran);
            }
            // Lanes of other groups would keep running: despool so each
            // lane returns (or waits at the barrier) on its own.
            DecodedOp::Return | DecodedOp::Barrier if self.nsplits > 0 => {
                return Ok(WarpStep::Despool);
            }
            DecodedOp::Return => {
                self.done = true;
                return Ok(WarpStep::Done);
            }
            // Allocation order must match scalar lane-major execution;
            // nothing has been allocated lock-step up to here, so the
            // despooled lanes reproduce it exactly.
            DecodedOp::Alloc { .. } => return Ok(WarpStep::Despool),
            // Divergence: split before the program counter advances, so
            // every group executes the op from the same point.
            DecodedOp::For { lb, ub, step, .. }
                if !self.fill_keys(cx.parents, &[*lb, *ub, *step], for_key)? =>
            {
                self.push_split();
            }
            DecodedOp::If { cond, .. } if !self.fill_keys(cx.parents, &[*cond], if_key)? => {
                self.push_split();
            }
            _ => {}
        }

        // Non-terminator: advance the program counter first so suspension
        // resumes *after* the op.
        self.frames.last_mut().expect("frame stack non-empty").idx += 1;

        match decoded {
            DecodedOp::Barrier => {
                self.bump_active(cx.counters, op_id);
                Ok(WarpStep::Barrier)
            }
            DecodedOp::Parallel => Err(SimError::new(
                "parallel loop nested inside the thread level",
            )),
            DecodedOp::For {
                lb,
                ub,
                step,
                iters,
                body,
            } => {
                // The active lanes agree on the trip count and step (the
                // split key), so the lead's bounds drive the loop for all;
                // each lane's induction variable starts at its own bound.
                let lead = self.active[0] as usize;
                let lb0 = want_int(self.get(cx.parents, *lb, lead)?)?;
                let ub0 = want_int(self.get(cx.parents, *ub, lead)?)?;
                let step = want_int(self.get(cx.parents, *step, lead)?)?;
                let n = self.gather(cx.parents, iters)?;
                if lb0 < ub0 {
                    let arg0 = func.region(*body).args[0];
                    let base = arg0.index() * self.stride;
                    for i in 0..self.active.len() {
                        let lane = self.active[i] as usize;
                        self.vals[base + lane] = self.get(cx.parents, *lb, lane)?;
                    }
                    self.epochs[arg0.index()] = self.cur;
                    self.scatter(&func.region(*body).args[1..], n);
                    self.frames.push(Frame {
                        region: *body,
                        idx: 0,
                        kind: FrameKind::For {
                            op: op_id,
                            iv: lb0,
                            ub: ub0,
                            step,
                        },
                    });
                } else {
                    self.scatter(&func.op(op_id).results, n);
                }
                Ok(WarpStep::Ran)
            }
            DecodedOp::While { inits, cond } => {
                let n = self.gather(cx.parents, inits)?;
                self.scatter(&func.region(*cond).args, n);
                self.frames.push(Frame {
                    region: *cond,
                    idx: 0,
                    kind: FrameKind::WhileCond { op: op_id },
                });
                Ok(WarpStep::Ran)
            }
            DecodedOp::If {
                cond,
                then_r,
                else_r,
            } => {
                self.bump_active(cx.counters, op_id);
                let lead = self.active[0] as usize;
                let taken = want_int(self.get(cx.parents, *cond, lead)?)? != 0;
                let region = if taken { *then_r } else { *else_r }
                    .ok_or_else(|| SimError::new("`if` without both arm regions"))?;
                self.frames.push(Frame {
                    region,
                    idx: 0,
                    kind: FrameKind::If { op: op_id },
                });
                Ok(WarpStep::Ran)
            }
            DecodedOp::Alternatives { region } => {
                let region = region.ok_or_else(|| {
                    SimError::new("`alternatives` selects a region it does not have")
                })?;
                self.frames.push(Frame {
                    region,
                    idx: 0,
                    kind: FrameKind::Alt,
                });
                Ok(WarpStep::Ran)
            }
            DecodedOp::Call { callee } => Err(SimError::new(format!(
                "call to @{callee}: the simulator requires fully inlined kernels"
            ))),
            DecodedOp::ConstInt { out, value } => {
                self.set_uniform(slot_value(*out), RtVal::Int(*value));
                Ok(WarpStep::Ran)
            }
            DecodedOp::ConstFloat { out, value } => {
                self.set_uniform(slot_value(*out), RtVal::Float(*value));
                Ok(WarpStep::Ran)
            }
            DecodedOp::Binary { out, l, r, op, ty } => {
                self.bump_active(cx.counters, op_id);
                let base = *out as usize * self.stride;
                for i in 0..self.active.len() {
                    let lane = self.active[i] as usize;
                    let lv = self.get(cx.parents, *l, lane)?;
                    let rv = self.get(cx.parents, *r, lane)?;
                    self.vals[base + lane] = eval_binary(*op, *ty, lv, rv)?;
                }
                self.stamp(*out);
                Ok(WarpStep::Ran)
            }
            DecodedOp::Unary { out, v, op, ty } => {
                self.bump_active(cx.counters, op_id);
                let base = *out as usize * self.stride;
                for i in 0..self.active.len() {
                    let lane = self.active[i] as usize;
                    let vv = self.get(cx.parents, *v, lane)?;
                    self.vals[base + lane] = eval_unary(*op, *ty, vv)?;
                }
                self.stamp(*out);
                Ok(WarpStep::Ran)
            }
            DecodedOp::Cmp {
                out,
                l,
                r,
                pred,
                float,
            } => {
                self.bump_active(cx.counters, op_id);
                let base = *out as usize * self.stride;
                for i in 0..self.active.len() {
                    let lane = self.active[i] as usize;
                    let lv = self.get(cx.parents, *l, lane)?;
                    let rv = self.get(cx.parents, *r, lane)?;
                    let flag = eval_cmp(*pred, *float, lv, rv)?;
                    self.vals[base + lane] = RtVal::Int(flag as i64);
                }
                self.stamp(*out);
                Ok(WarpStep::Ran)
            }
            DecodedOp::Select { out, c, t, f } => {
                self.bump_active(cx.counters, op_id);
                let base = *out as usize * self.stride;
                for i in 0..self.active.len() {
                    let lane = self.active[i] as usize;
                    let flag = want_int(self.get(cx.parents, *c, lane)?)? != 0;
                    let v = self.get(cx.parents, if flag { *t } else { *f }, lane)?;
                    self.vals[base + lane] = v;
                }
                self.stamp(*out);
                Ok(WarpStep::Ran)
            }
            DecodedOp::Cast { out, v, from, to } => {
                let base = *out as usize * self.stride;
                for i in 0..self.active.len() {
                    let lane = self.active[i] as usize;
                    let vv = self.get(cx.parents, *v, lane)?;
                    self.vals[base + lane] = crate::interp::cast_value(vv, *from, *to)?;
                }
                self.stamp(*out);
                Ok(WarpStep::Ran)
            }
            DecodedOp::Load { out, mem, idx } => {
                let base = *out as usize * self.stride;
                for a in 0..self.active.len() {
                    let lane = self.active[a] as usize;
                    let mem = want_mem(self.get(cx.parents, *mem, lane)?)?;
                    let mut index = [0i64; 3];
                    for (d, &s) in idx.iter().enumerate() {
                        index[d] = want_int(self.get(cx.parents, s, lane)?)?;
                    }
                    let flat = mem.flatten(&index[..mem.rank as usize]).ok_or_else(|| {
                        SimError::new(format!(
                            "out-of-bounds load at {op_id:?}: index {index:?} in {:?}",
                            mem
                        ))
                    })?;
                    let elem = cx.mem.elem_type(mem.buf);
                    let (f, i) = cx
                        .mem
                        .load_scalar(mem.buf, flat)
                        .ok_or_else(|| SimError::new(format!("out-of-bounds load at {op_id:?}")))?;
                    self.vals[base + lane] = if elem.is_float() {
                        RtVal::Float(f)
                    } else {
                        RtVal::Int(i)
                    };
                    let c = &mut cx.counters[lane];
                    let occ = c.bump(op_id);
                    c.events.push(MemEvent {
                        op: op_id.index() as u32,
                        occ,
                        addr: cx.mem.base_addr(mem.buf) + flat as u64 * elem.size_bytes(),
                        bytes: elem.size_bytes() as u8,
                        space: mem.space,
                        is_store: false,
                    });
                }
                self.stamp(*out);
                Ok(WarpStep::Ran)
            }
            DecodedOp::Store { val, mem, idx } => {
                for a in 0..self.active.len() {
                    let lane = self.active[a] as usize;
                    let v = self.get(cx.parents, *val, lane)?;
                    let mem = want_mem(self.get(cx.parents, *mem, lane)?)?;
                    let mut index = [0i64; 3];
                    for (d, &s) in idx.iter().enumerate() {
                        index[d] = want_int(self.get(cx.parents, s, lane)?)?;
                    }
                    let flat = mem.flatten(&index[..mem.rank as usize]).ok_or_else(|| {
                        SimError::new(format!(
                            "out-of-bounds store at {op_id:?}: index {index:?} in {:?}",
                            mem
                        ))
                    })?;
                    let elem = cx.mem.elem_type(mem.buf);
                    let (f, i) = match v {
                        RtVal::Float(f) => (f, 0),
                        RtVal::Int(i) => (0.0, i),
                        RtVal::Mem(_) => return Err(SimError::new("cannot store a memref")),
                    };
                    if !cx.mem.store_scalar(mem.buf, flat, f, i) {
                        return Err(SimError::new(format!("out-of-bounds store at {op_id:?}")));
                    }
                    let c = &mut cx.counters[lane];
                    let occ = c.bump(op_id);
                    c.events.push(MemEvent {
                        op: op_id.index() as u32,
                        occ,
                        addr: cx.mem.base_addr(mem.buf) + flat as u64 * elem.size_bytes(),
                        bytes: elem.size_bytes() as u8,
                        space: mem.space,
                        is_store: true,
                    });
                }
                Ok(WarpStep::Ran)
            }
            DecodedOp::Dim { out, mem, index } => {
                let base = *out as usize * self.stride;
                for i in 0..self.active.len() {
                    let lane = self.active[i] as usize;
                    let mem = want_mem(self.get(cx.parents, *mem, lane)?)?;
                    self.vals[base + lane] = RtVal::Int(mem.dim(*index));
                }
                self.stamp(*out);
                Ok(WarpStep::Ran)
            }
            DecodedOp::Invalid { bump, msg } => {
                if *bump {
                    self.bump_active(cx.counters, op_id);
                }
                Err(SimError::new(msg.clone()))
            }
            DecodedOp::Alloc { .. }
            | DecodedOp::Yield { .. }
            | DecodedOp::Condition { .. }
            | DecodedOp::Return => unreachable!("handled before the pc advance"),
        }
    }
}
