//! Seeded guest-program generator.
//!
//! Every workload's programs come from here, rendered as `riscv-asm`
//! source: the simulator only ever sees the generated inputs, and the same
//! `(seed, index, shape)` always yields byte-identical source.
//!
//! Programs are structured so their dynamic instruction and control-flow
//! counts are known statically: loops are counted, recursion depth is a
//! literal, jump-table arms all have the same length, and the call graph is
//! a DAG (function `i` only calls functions with a higher index). The
//! generator uses those counts to pad the main loop until one outer
//! iteration retires `insns_per_cf` instructions per CFI-relevant
//! instruction (call, return or indirect jump), so the control-flow density
//! — the property the CFI pipeline's cost depends on — is the same for
//! every seed, and seeds differ only in layout, mix and constants.
//!
//! Register discipline: `s0` outer counter, `s1` checksum (returned in
//! `a0`), `s2` jump-table selector, `a1` recursion depth, `a2` data-buffer
//! pointer (512 bytes, 2 KiB below the initial stack pointer, far from the
//! code so data stores never touch decoded instructions), `t1` indirect-call scratch, `t2`/`t3` dispatch scratch, `t4`
//! loop counter, `t5` ALU scratch, `t6` hijack scratch. `ra`/`t0` are link
//! registers to the CFI classifier and never serve as jump scratch.

use std::fmt::Write as _;

/// Load address of every generated program.
pub const BASE: u64 = 0x8000_0000;

/// SplitMix64: a tiny, fully specified PRNG, so generated programs never
/// depend on another crate's generator staying the same.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// What a generated program stresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Density {
    /// About one call, return or indirect jump per `insns_per_cf` retired
    /// instructions: nested and indirect calls, bounded recursion, jump
    /// tables, short leaves.
    CallDense,
    /// Counted ALU/mul/load/store loops with rare calls and one short
    /// recursion burst per outer iteration.
    Compute,
}

/// Size and density of one generated program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Which body style.
    pub density: Density,
    /// Retired instructions per CFI-relevant instruction in one outer
    /// iteration (the padding target).
    pub insns_per_cf: u64,
    /// Retired instructions the whole program should take; the outer
    /// iteration count is derived from it, so every seed does the same
    /// amount of work.
    pub target_insns: u64,
    /// Return-hijack variant: one call's return address is overwritten,
    /// so the RoT's shadow stack must flag it.
    pub hijack: bool,
}

/// Statically known dynamic counts of one piece of code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// Retired instructions.
    pub insns: u64,
    /// Retired CFI-relevant instructions (calls, returns, indirect jumps).
    pub cfs: u64,
}

impl std::ops::Add for Cost {
    type Output = Cost;
    fn add(self, o: Cost) -> Cost {
        Cost {
            insns: self.insns + o.insns,
            cfs: self.cfs + o.cfs,
        }
    }
}

impl std::ops::Mul<u64> for Cost {
    type Output = Cost;
    fn mul(self, n: u64) -> Cost {
        Cost {
            insns: self.insns * n,
            cfs: self.cfs * n,
        }
    }
}

const fn cost(insns: u64, cfs: u64) -> Cost {
    Cost { insns, cfs }
}

/// One statement of a generated body.
#[derive(Debug, Clone)]
enum Item {
    /// One straight-line instruction, rendered verbatim.
    Alu(String),
    /// `call f<n>`.
    Call(usize),
    /// `la t1, f<n>; jalr t1` — a register-indirect call.
    ICall(usize),
    /// `li a1, depth; call rec`.
    Rec(u64),
    /// Four-way jump-table dispatch on the `s2` counter.
    Switch,
    /// Counted loop (`t4` countdown) over straight-line instructions.
    Loop(u64, Vec<String>),
}

/// Fixed pieces' costs (instruction counts of the rendered templates).
const PROLOGUE: Cost = cost(2, 0);
const EPILOGUE: Cost = cost(3, 1);
/// `addi s2, s2, 1; la t2, tbl (2); andi; slli; add; ld; jr` + arm + `j`.
const SWITCH: Cost = cost(10, 1);

/// Cost of one `rec` invocation at `depth`, excluding the caller's call:
/// each level retires prologue + `beqz` + `addi` + `xor` + `call` +
/// epilogue (9 insns, call + return); the base level prologue + `beqz` +
/// epilogue (6 insns, return).
fn rec_cost(depth: u64) -> Cost {
    cost(9 * depth + 6, 2 * depth + 1)
}

/// Instructions `li` expands to for a non-negative 32-bit `value`:
/// `addi` alone when it fits 12 bits, `lui` alone when its low 12 bits are
/// zero, else `lui` + `addiw`.
fn li_len(value: u64) -> u64 {
    if value < 2048 || value & 0xfff == 0 {
        1
    } else {
        2
    }
}

struct Func {
    items: Vec<Item>,
    leaf: bool,
    /// Dynamic cost of one call, fixed once `items` is final.
    cost: Cost,
}

struct Gen {
    rng: Rng,
    funcs: Vec<Func>,
}

impl Gen {
    fn alu(&mut self) -> String {
        let imm = self.rng.range(1, 2000) as i64 - 1000;
        match self.rng.range(0, 5) {
            0 => format!("addi s1, s1, {imm}"),
            1 => format!("xori s1, s1, {imm}"),
            2 => "add s1, s1, s0".to_string(),
            3 => format!("slli t5, s1, {}", self.rng.range(1, 13)),
            4 => "xor s1, s1, t5".to_string(),
            _ => "sub s1, s1, s2".to_string(),
        }
    }

    /// A compute loop body: a fixed mix (two loads, two stores, two
    /// multiplies, four ALU ops — so every seed has the same instruction
    /// classes and a similar CPI) in seeded order, with seeded offsets into
    /// the data buffer at `a2` and seeded immediates.
    fn compute_body(&mut self) -> Vec<String> {
        let mut body = Vec::new();
        for _ in 0..2 {
            body.push(format!("ld t5, {}(a2)", self.rng.range(0, 63) * 8));
            body.push(format!("sd s1, {}(a2)", self.rng.range(0, 63) * 8));
            body.push("mul s1, s1, t5".to_string());
            body.push("ori t5, t5, 1".to_string());
            body.push(self.alu());
        }
        // Fisher-Yates with the seeded generator.
        for i in (1..body.len()).rev() {
            let j = self.rng.range(0, i as u64) as usize;
            body.swap(i, j);
        }
        body
    }

    fn cost_of(&self, item: &Item) -> Cost {
        match item {
            Item::Alu(_) => cost(1, 0),
            Item::Call(n) => cost(1, 1) + self.func_cost(*n),
            Item::ICall(n) => cost(3, 1) + self.func_cost(*n),
            Item::Rec(d) => cost(2, 1) + rec_cost(*d),
            Item::Switch => SWITCH,
            Item::Loop(n, body) => cost(li_len(*n), 0) + cost(body.len() as u64 + 2, 0) * *n,
        }
    }

    fn func_cost(&self, n: usize) -> Cost {
        self.funcs[n].cost
    }

    /// Sets function `n`'s body and records its cost (its callees, all of
    /// higher index, must already be final).
    fn define(&mut self, n: usize, items: Vec<Item>) {
        let body = items
            .iter()
            .fold(Cost::default(), |acc, it| acc + self.cost_of(it));
        let f = &mut self.funcs[n];
        f.cost = if f.leaf {
            body + cost(1, 1)
        } else {
            PROLOGUE + body + EPILOGUE
        };
        f.items = items;
    }

    /// A callee strictly after `caller` (DAG order).
    fn callee(&mut self, caller: usize) -> usize {
        self.rng
            .range(caller as u64 + 1, self.funcs.len() as u64 - 1) as usize
    }

    /// Call-dense function set: `n` functions, the last quarter leaves.
    fn call_dense_funcs(&mut self, n: usize) {
        self.funcs = (0..n)
            .map(|i| Func {
                items: Vec::new(),
                leaf: i >= n - n / 4,
                cost: Cost::default(),
            })
            .collect();
        // Fill from the back so callee costs are final before callers.
        for i in (0..n).rev() {
            let mut items = Vec::new();
            if self.funcs[i].leaf {
                for _ in 0..self.rng.range(1, 2) {
                    items.push(Item::Alu(self.alu()));
                }
            } else {
                for _ in 0..self.rng.range(2, 3) {
                    items.push(Item::Alu(self.alu()));
                    let callee = self.callee(i);
                    items.push(match self.rng.range(0, 9) {
                        0 | 1 => Item::ICall(callee),
                        2 => Item::Rec(self.rng.range(2, 4)),
                        3 => Item::Switch,
                        _ => Item::Call(callee),
                    });
                }
            }
            self.define(i, items);
        }
    }

    /// Compute function set: two non-leaf helpers with a short counted loop
    /// each, calling one leaf.
    fn compute_funcs(&mut self) {
        self.funcs = (0..3)
            .map(|i| Func {
                items: Vec::new(),
                leaf: i == 2,
                cost: Cost::default(),
            })
            .collect();
        let leaf_body = vec![Item::Alu(self.alu()), Item::Alu(self.alu())];
        self.define(2, leaf_body);
        for i in 0..2 {
            let body = self.compute_body();
            let items = vec![
                Item::Loop(self.rng.range(4, 8), body),
                Item::Call(2),
                Item::Alu(self.alu()),
            ];
            self.define(i, items);
        }
    }
}

/// Renders a label-safe body item.
fn render_item(out: &mut String, item: &Item, uid: &mut usize) {
    match item {
        Item::Alu(s) => {
            let _ = writeln!(out, "    {s}");
        }
        Item::Call(n) => {
            let _ = writeln!(out, "    call f{n}");
        }
        Item::ICall(n) => {
            let _ = writeln!(out, "    la t1, f{n}\n    jalr t1");
        }
        Item::Rec(d) => {
            let _ = writeln!(out, "    li a1, {d}\n    call rec");
        }
        Item::Switch => {
            *uid += 1;
            let u = *uid;
            let _ = writeln!(
                out,
                "    addi s2, s2, 1\n    la t2, tbl{u}\n    andi t3, s2, 3\n    slli t3, t3, 3\n    \
                 add t2, t2, t3\n    ld t2, 0(t2)\n    jr t2"
            );
            for arm in 0..4 {
                let _ = writeln!(
                    out,
                    "sw{u}_{arm}:\n    addi s1, s1, {}\n    j sw{u}_join",
                    arm * 7 + 3
                );
            }
            let _ = writeln!(out, "    .align 3\ntbl{u}:");
            for arm in 0..4 {
                let _ = writeln!(out, "    .dword sw{u}_{arm}");
            }
            let _ = writeln!(out, "sw{u}_join:");
        }
        Item::Loop(n, body) => {
            *uid += 1;
            let u = *uid;
            let _ = writeln!(out, "    li t4, {n}\nloop{u}:");
            for s in body {
                let _ = writeln!(out, "    {s}");
            }
            let _ = writeln!(out, "    addi t4, t4, -1\n    bnez t4, loop{u}");
        }
    }
}

/// A generated program: its source and the static counts the generator
/// derived for it.
#[derive(Debug, Clone)]
pub struct Generated {
    /// `riscv-asm` source.
    pub source: String,
    /// Dynamic counts of one outer iteration.
    pub per_iteration: Cost,
    /// Outer-loop iterations.
    pub outer: u64,
}

/// Generates program `index` of `seed` with `shape`.
///
/// # Panics
///
/// Panics if `shape.insns_per_cf` is zero.
#[must_use]
pub fn generate(seed: u64, index: u32, shape: Shape) -> Generated {
    assert!(shape.insns_per_cf > 0, "degenerate shape");
    let mut rng = Rng::new(seed ^ (u64::from(index) << 32) ^ 0x7469_7461_6e63_6669);
    // Burn a few outputs so adjacent indices decorrelate.
    for _ in 0..4 {
        rng.next_u64();
    }
    let mut g = Gen {
        rng,
        funcs: Vec::new(),
    };
    let mut main: Vec<Item> = Vec::new();
    match shape.density {
        Density::CallDense => {
            let n = g.rng.range(12, 16) as usize;
            g.call_dense_funcs(n);
            // Every root function once per iteration (so each is live),
            // one of them through a function pointer.
            let roots = n / 4;
            for r in 0..roots {
                main.push(if r == 1 {
                    Item::ICall(r)
                } else {
                    Item::Call(r)
                });
            }
        }
        Density::Compute => {
            g.compute_funcs();
            let body = g.compute_body();
            main.push(Item::Loop(1, body));
            // One burst per iteration: bounded recursion deep enough to
            // overflow the depth-8 CFI queue, so even compute code pays a
            // (small) stall.
            let depth = g.rng.range(4, 6);
            main.push(Item::Rec(depth));
            let indirect = g.rng.range(0, 1) as usize;
            for root in 0..2 {
                main.push(if root == indirect {
                    Item::ICall(root)
                } else {
                    Item::Call(root)
                });
            }
        }
    }
    // Pad to the target density: straight-line ALU ops in the main loop
    // for call-dense code, the first loop's trip count for compute code.
    let body_cost =
        |g: &Gen, main: &[Item]| main.iter().fold(cost(2, 0), |acc, it| acc + g.cost_of(it));
    let target = |c: Cost| c.cfs * shape.insns_per_cf;
    match shape.density {
        Density::CallDense => {
            // Spread the padding evenly behind the root calls.
            let c = body_cost(&g, &main);
            let pad = target(c).saturating_sub(c.insns);
            let roots = main.len() as u64;
            let calls = std::mem::take(&mut main);
            for (r, call) in calls.into_iter().enumerate() {
                main.push(call);
                let share = pad / roots + u64::from((r as u64) < pad % roots);
                for _ in 0..share {
                    let op = g.alu();
                    main.push(Item::Alu(op));
                }
            }
        }
        Density::Compute => {
            let c = body_cost(&g, &main);
            if let Item::Loop(n, body) = &mut main[0] {
                let per_trip = body.len() as u64 + 2;
                *n = (target(c).saturating_sub(c.insns) / per_trip).max(1);
            }
        }
    }
    let per_iteration = body_cost(&g, &main);
    let outer = (shape.target_insns / per_iteration.insns).max(1);

    let mut out = String::new();
    let mut uid = 0usize;
    let _ = writeln!(
        out,
        "_start:\n    li s0, {}\n    li s1, {}\n    li s2, 0\n    li t5, 1\n    addi a2, sp, -2048",
        outer,
        g.rng.range(1, 2000)
    );
    if shape.hijack {
        let _ = writeln!(out, "    call victim\nvictim_ret:\n    addi s1, s1, 1");
    }
    let _ = writeln!(out, "outer:");
    for item in &main {
        render_item(&mut out, item, &mut uid);
    }
    let _ = writeln!(
        out,
        "    addi s0, s0, -1\n    bnez s0, outer\n    mv a0, s1\n    ebreak"
    );
    for (i, f) in g.funcs.iter().enumerate() {
        let _ = writeln!(out, "f{i}:");
        if !f.leaf {
            let _ = writeln!(out, "    addi sp, sp, -16\n    sd ra, 8(sp)");
        }
        for item in &f.items {
            render_item(&mut out, item, &mut uid);
        }
        if !f.leaf {
            let _ = writeln!(out, "    ld ra, 8(sp)\n    addi sp, sp, 16");
        }
        let _ = writeln!(out, "    ret");
    }
    let _ = writeln!(
        out,
        "rec:\n    addi sp, sp, -16\n    sd ra, 8(sp)\n    beqz a1, rec_base\n    addi a1, a1, -1\n    \
         xor s1, s1, a1\n    call rec\nrec_base:\n    ld ra, 8(sp)\n    addi sp, sp, 16\n    ret"
    );
    if shape.hijack {
        // The victim overwrites its own return address with a code address
        // that is not its call site, then returns there: a textbook
        // return-oriented hijack the shadow stack must flag. The landing
        // pad rejoins the caller so the run still halts normally.
        let _ = writeln!(
            out,
            "victim:\n    la t6, hijack_land\n    mv ra, t6\n    ret\nhijack_land:\n    \
             addi s1, s1, 2\n    j victim_ret"
        );
    }
    Generated {
        source: out,
        per_iteration,
        outer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(density: Density) -> Shape {
        Shape {
            density,
            insns_per_cf: if density == Density::CallDense {
                4
            } else {
                1500
            },
            target_insns: 1000,
            hijack: false,
        }
    }

    #[test]
    fn same_seed_same_bytes() {
        for density in [Density::CallDense, Density::Compute] {
            for seed in [0, 1, 42, u64::MAX] {
                let a = generate(seed, 3, shape(density));
                let b = generate(seed, 3, shape(density));
                assert_eq!(a.source, b.source);
                let pa = riscv_asm::assemble(&a.source, riscv_isa::Xlen::Rv64, BASE).unwrap();
                let pb = riscv_asm::assemble(&b.source, riscv_isa::Xlen::Rv64, BASE).unwrap();
                assert_eq!(pa.bytes, pb.bytes, "seed {seed}: image bytes differ");
            }
        }
    }

    #[test]
    fn seeds_and_indices_differ() {
        let s = shape(Density::CallDense);
        assert_ne!(generate(1, 0, s).source, generate(2, 0, s).source);
        assert_ne!(generate(1, 0, s).source, generate(1, 1, s).source);
    }

    /// The static cost model the padding relies on must match what the
    /// core actually retires.
    #[test]
    fn static_counts_match_the_core() {
        for density in [Density::CallDense, Density::Compute] {
            for seed in 0..6 {
                let mut s = shape(density);
                s.target_insns = 1;
                let g = generate(seed, 0, s);
                assert_eq!(g.outer, 1);
                let one = crate::check::reference(&g.source);
                s.target_insns = 3 * g.per_iteration.insns;
                let g = generate(seed, 0, s);
                assert_eq!(g.outer, 3);
                let three = crate::check::reference(&g.source);
                let per_iter_insns = (three.instret - one.instret) / 2;
                let per_iter_cfs = (three.stream.len() - one.stream.len()) as u64 / 2;
                assert_eq!(
                    per_iter_insns, g.per_iteration.insns,
                    "{density:?} seed {seed}"
                );
                assert_eq!(per_iter_cfs, g.per_iteration.cfs, "{density:?} seed {seed}");
            }
        }
    }
}
