//! One function per paper table/figure. Each returns a human-readable
//! summary (also printed by its runner binary) and writes TSV data under
//! `results/`.

use crate::{
    category_table, configs, gain_pct, losers, read_ratio, sweep, write_line_graph, Ctx,
    TraceRatios,
};
use bv_cache::PolicyKind;
use bv_core::area::AreaModel;
use bv_core::{DccLlc, LlcOrganization, NoInner, VictimPolicyKind, VscLlc};
use bv_energy::{EnergyModel, LlcEnergyClass};
use bv_sim::report::geomean;
use bv_sim::{LlcKind, SimConfig};
use bv_trace::mix::paper_mixes;
use bv_trace::WorkloadCategory;
use std::fmt::Write as _;

/// Table I: the workload inventory.
#[must_use]
pub fn table1(ctx: &Ctx) -> String {
    let mut s = String::from("== Table I: workloads ==\n");
    let mut rows = Vec::new();
    for cat in WorkloadCategory::ALL {
        let total = ctx.registry.by_category(cat).count();
        let sensitive = ctx
            .registry
            .by_category(cat)
            .filter(|t| t.cache_sensitive)
            .count();
        let friendly = ctx
            .registry
            .by_category(cat)
            .filter(|t| t.cache_sensitive && t.compression_friendly)
            .count();
        let _ = writeln!(
            s,
            "{:12} total {:>2}  cache-sensitive {:>2}  compression-friendly {:>2}",
            cat.name(),
            total,
            sensitive,
            friendly
        );
        rows.push(vec![
            cat.name().to_string(),
            total.to_string(),
            sensitive.to_string(),
            friendly.to_string(),
        ]);
    }
    ctx.write_tsv(
        "table1_workloads.tsv",
        "category\ttotal\tsensitive\tfriendly",
        &rows,
    );
    let _ = writeln!(
        s,
        "TOTAL        100 traces, 60 cache-sensitive (50 friendly + 10 not), 40 insensitive"
    );
    s
}

/// Section IV.C: area overhead.
#[must_use]
pub fn area(ctx: &Ctx) -> String {
    let m = AreaModel::paper_default();
    let s = format!(
        "== Section IV.C: area overhead (2 MB, 16-way, 48-bit addresses) ==\n\
         tag bits per way           : {} (paper: 31)\n\
         added bits per way         : {} (paper: 40 = 31 tag + 2x4 size + 1 valid)\n\
         tag-array overhead         : {:.1}% (paper: 7.3%)\n\
         compression logic          : {:.1}% (paper: 1.2%)\n\
         total area overhead        : {:.1}% (paper: 8.5%)\n",
        m.tag_bits(),
        m.added_bits_per_way(),
        m.tag_overhead_fraction() * 100.0,
        m.logic_fraction * 100.0,
        m.total_overhead_fraction() * 100.0
    );
    ctx.write_tsv(
        "area_overhead.tsv",
        "metric\tvalue",
        &[
            vec!["tag_bits".into(), m.tag_bits().to_string()],
            vec![
                "added_bits_per_way".into(),
                m.added_bits_per_way().to_string(),
            ],
            vec![
                "tag_overhead_fraction".into(),
                format!("{:.4}", m.tag_overhead_fraction()),
            ],
            vec![
                "total_overhead_fraction".into(),
                format!("{:.4}", m.total_overhead_fraction()),
            ],
        ],
    );
    s
}

fn line_figure(ctx: &Ctx, cfg: SimConfig, file: &str, title: &str, paper: &str) -> String {
    let rows = sweep(ctx, cfg, configs::base2mb(), false);
    let path = write_line_graph(ctx, file, &rows);
    let friendly: Vec<&TraceRatios> = rows.iter().filter(|r| r.friendly).collect();
    let unfriendly: Vec<&TraceRatios> = rows.iter().filter(|r| !r.friendly).collect();
    format!(
        "== {title} ==\n\
         overall IPC gain      : {:+.1}% (geomean over 60 sensitive traces)\n\
         friendly IPC gain     : {:+.1}%\n\
         low-compress IPC gain : {:+.1}%\n\
         DRAM read ratio       : {:.3}\n\
         traces losing IPC     : {}/60\n\
         worst trace IPC ratio : {:.3}\n\
         paper reference       : {paper}\n\
         line-graph data       : {}\n",
        gain_pct(rows.iter()),
        gain_pct(friendly.iter().copied()),
        gain_pct(unfriendly.iter().copied()),
        read_ratio(rows.iter()),
        losers(&rows, 0.999),
        rows.iter().map(|r| r.ipc_ratio).fold(f64::MAX, f64::min),
        path.display()
    )
}

/// Figure 6: the naive two-tag architecture.
#[must_use]
pub fn fig6(ctx: &Ctx) -> String {
    line_figure(
        ctx,
        SimConfig::single_thread(LlcKind::TwoTag),
        "fig6_two_tag.tsv",
        "Figure 6: naive two-tag (partner-line victimization)",
        "-12% average, 37/60 traces lose",
    )
}

/// Figure 7: the modified (ECM-style) two-tag architecture.
#[must_use]
pub fn fig7(ctx: &Ctx) -> String {
    line_figure(
        ctx,
        SimConfig::single_thread(LlcKind::TwoTagEcm),
        "fig7_two_tag_ecm.tsv",
        "Figure 7: modified two-tag (ECM-style victim search)",
        "+4.7% friendly / -3.8% low-compress, 27/60 lose, outliers to -14%",
    )
}

/// Figure 8: Base-Victim opportunistic compression.
#[must_use]
pub fn fig8(ctx: &Ctx) -> String {
    let rows = sweep(ctx, configs::bv2mb(), configs::base2mb(), false);
    let path = write_line_graph(ctx, "fig8_base_victim.tsv", &rows);
    let friendly: Vec<&TraceRatios> = rows.iter().filter(|r| r.friendly).collect();
    let max_read = rows.iter().map(|r| r.read_ratio).fold(0.0f64, f64::max);
    format!(
        "== Figure 8: Base-Victim opportunistic compression ==\n\
         overall IPC gain      : {:+.1}% (paper: +7.3%)\n\
         friendly IPC gain     : {:+.1}% (paper: +8.5%)\n\
         friendly read ratio   : {:.3} (paper: 0.84, i.e. -16% reads)\n\
         traces losing IPC     : {}/60 (paper: 1, by 0.01%)\n\
         max DRAM read ratio   : {:.4} (guarantee: never above 1.0)\n\
         line-graph data       : {}\n",
        gain_pct(rows.iter()),
        gain_pct(friendly.iter().copied()),
        read_ratio(friendly.iter().copied()),
        losers(&rows, 0.999),
        max_read,
        path.display()
    )
}

/// Figure 9: per-category gains vs a 3 MB uncompressed cache.
#[must_use]
pub fn fig9(ctx: &Ctx) -> String {
    let bv = sweep(ctx, configs::bv2mb(), configs::base2mb(), false);
    let big = sweep(ctx, configs::unc3mb(), configs::base2mb(), false);
    let mut rows = Vec::new();
    for cat in WorkloadCategory::ALL {
        rows.push(vec![
            cat.name().to_string(),
            format!(
                "{:.2}",
                gain_pct(big.iter().filter(|r| r.category == cat && r.friendly))
            ),
            format!(
                "{:.2}",
                gain_pct(bv.iter().filter(|r| r.category == cat && r.friendly))
            ),
            format!("{:.2}", gain_pct(big.iter().filter(|r| r.category == cat))),
            format!("{:.2}", gain_pct(bv.iter().filter(|r| r.category == cat))),
        ]);
    }
    ctx.write_tsv(
        "fig9_categories.tsv",
        "category\t3mb_friendly\tbv_friendly\t3mb_overall\tbv_overall",
        &rows,
    );
    format!(
        "== Figure 9: per-category gains (friendly / overall) ==\n\
         3 MB uncompressed:\n{}\
         Base-Victim 2 MB:\n{}\
         paper: 3 MB +8.5%/+8.1%, Base-Victim +8.5%/+7.3%\n",
        category_table(&big),
        category_table(&bv)
    )
}

/// Figure 10: advanced baseline replacement policies (SRRIP, CHAR).
#[must_use]
pub fn fig10(ctx: &Ctx) -> String {
    let mut s = String::from("== Figure 10: replacement-policy sensitivity ==\n");
    let mut tsv = Vec::new();
    for policy in [PolicyKind::Srrip, PolicyKind::CharLite] {
        // Both the policy baseline and the compressed cache are normalized
        // to the NRU uncompressed baseline, as in the paper's figure.
        let plain = sweep(
            ctx,
            configs::base2mb().with_policy(policy),
            configs::base2mb(),
            false,
        );
        let comp = sweep(
            ctx,
            configs::bv2mb().with_policy(policy),
            configs::base2mb(),
            false,
        );
        // Gain of compression on top of the policy-managed baseline.
        let on_top = sweep(
            ctx,
            configs::bv2mb().with_policy(policy),
            configs::base2mb().with_policy(policy),
            false,
        );
        let _ = writeln!(
            s,
            "{:6}: policy alone {:+.1}%, +compression {:+.1}% (on top: {:+.1}%), losers {}/60",
            policy.name(),
            gain_pct(plain.iter()),
            gain_pct(comp.iter()),
            gain_pct(on_top.iter()),
            losers(&on_top, 0.999),
        );
        tsv.push(vec![
            policy.name().to_string(),
            format!("{:.4}", 1.0 + gain_pct(plain.iter()) / 100.0),
            format!("{:.4}", 1.0 + gain_pct(comp.iter()) / 100.0),
            format!("{:.4}", 1.0 + gain_pct(on_top.iter()) / 100.0),
        ]);
    }
    ctx.write_tsv(
        "fig10_replacement.tsv",
        "policy\tpolicy_ipc_ratio\tpolicy_plus_bv_ipc_ratio\tbv_on_top_ratio",
        &tsv,
    );
    s.push_str("paper: SRRIP +2.9%, +compression +6.4% on top; CHAR +3.2%, +7.2% on top; no negative outliers\n");
    s
}

/// Figure 11: LLC size sensitivity (4 MB baseline).
#[must_use]
pub fn fig11(ctx: &Ctx) -> String {
    let cfg4 = configs::base2mb().with_llc_size(4 * 1024 * 1024, 16);
    let cfg6 = configs::base2mb().with_llc_size(6 * 1024 * 1024, 24);
    let bv4 = SimConfig::single_thread(LlcKind::BaseVictim).with_llc_size(4 * 1024 * 1024, 16);
    let four = sweep(ctx, cfg4, configs::base2mb(), false);
    let six = sweep(ctx, cfg6, configs::base2mb(), false);
    let bv = sweep(ctx, bv4, configs::base2mb(), false);
    let on_top = sweep(ctx, bv4, cfg4, false);
    ctx.write_tsv(
        "fig11_llc_size.tsv",
        "config\tipc_gain_pct_vs_2mb",
        &[
            vec!["4MB".into(), format!("{:.2}", gain_pct(four.iter()))],
            vec!["6MB".into(), format!("{:.2}", gain_pct(six.iter()))],
            vec!["4MB+BV".into(), format!("{:.2}", gain_pct(bv.iter()))],
            vec![
                "BV_on_top_of_4MB".into(),
                format!("{:.2}", gain_pct(on_top.iter())),
            ],
        ],
    );
    format!(
        "== Figure 11: LLC size sensitivity (vs 2 MB baseline) ==\n\
         4 MB uncompressed : {:+.1}% (paper: +15.8%)\n\
         6 MB uncompressed : {:+.1}% (paper: +9% over the 4 MB... reported as 6 MB gain over 2 MB ≈ +26%)\n\
         4 MB Base-Victim  : {:+.1}%\n\
         BV on top of 4 MB : {:+.1}% (paper: +6.8%)\n",
        gain_pct(four.iter()),
        gain_pct(six.iter()),
        gain_pct(bv.iter()),
        gain_pct(on_top.iter())
    )
}

/// Figure 12: all 100 traces, including cache-insensitive ones.
#[must_use]
pub fn fig12(ctx: &Ctx) -> String {
    let bv = sweep(ctx, configs::bv2mb(), configs::base2mb(), true);
    let big = sweep(ctx, configs::unc3mb(), configs::base2mb(), true);
    let path = write_line_graph(ctx, "fig12_all_traces.tsv", &bv);
    format!(
        "== Figure 12: all 100 traces ==\n\
         Base-Victim overall gain : {:+.1}% (paper: +4.3%)\n\
         3 MB overall gain        : {:+.1}% (paper: +4.9%)\n\
         traces losing IPC        : {}/100 (paper: no significant negative outliers)\n\
         line-graph data          : {}\n",
        gain_pct(bv.iter()),
        gain_pct(big.iter()),
        losers(&bv, 0.995),
        path.display()
    )
}

/// Figure 13: 4-way multi-program mixes.
#[must_use]
pub fn fig13(ctx: &Ctx) -> String {
    let mixes = paper_mixes(&ctx.registry);
    // Each mix's six configurations are independent of every other mix's,
    // so mixes are fanned out across the runner's worker count (mix runs
    // are not checkpointed — each is used exactly once per figure).
    let per_mix =
        bv_runner::pool::parallel_map(mixes, ctx.runner.workers(), |_worker, _idx, mix| {
            let members = mix.resolve(&ctx.registry);
            let base4 = ctx.run_mix(&members, SimConfig::multi_program(LlcKind::Uncompressed));
            let six = ctx.run_mix(
                &members,
                SimConfig::multi_program(LlcKind::Uncompressed).with_llc_size(6 * 1024 * 1024, 24),
            );
            let bv4 = ctx.run_mix(&members, SimConfig::multi_program(LlcKind::BaseVictim));
            let base8 = ctx.run_mix(
                &members,
                SimConfig::multi_program(LlcKind::Uncompressed).with_llc_size(8 * 1024 * 1024, 16),
            );
            let twelve = ctx.run_mix(
                &members,
                SimConfig::multi_program(LlcKind::Uncompressed).with_llc_size(12 * 1024 * 1024, 24),
            );
            let bv8 = ctx.run_mix(
                &members,
                SimConfig::multi_program(LlcKind::BaseVictim).with_llc_size(8 * 1024 * 1024, 16),
            );
            (
                mix.name,
                [
                    six.weighted_speedup(&base4),
                    bv4.weighted_speedup(&base4),
                    base8.weighted_speedup(&base4),
                    twelve.weighted_speedup(&base8),
                    bv8.weighted_speedup(&base8),
                ],
            )
        });
    let mut ws_bv6 = Vec::new(); // 6MB vs 4MB
    let mut ws_bv4 = Vec::new(); // BV-4MB vs 4MB
    let mut ws_8 = Vec::new(); // 8MB vs 4MB
    let mut ws_12 = Vec::new(); // 12MB vs 8MB
    let mut ws_bv8 = Vec::new(); // BV-8MB vs 8MB
    let mut tsv = Vec::new();
    for (name, [w6, w4, w8, w12, wb8]) in per_mix {
        ws_bv6.push(w6);
        ws_bv4.push(w4);
        ws_8.push(w8);
        ws_12.push(w12);
        ws_bv8.push(wb8);
        tsv.push(vec![
            name,
            format!("{w6:.4}"),
            format!("{w4:.4}"),
            format!("{w8:.4}"),
            format!("{w12:.4}"),
            format!("{wb8:.4}"),
        ]);
    }
    ctx.write_tsv(
        "fig13_multiprogram.tsv",
        "mix\t6mb_vs_4mb\tbv4mb_vs_4mb\t8mb_vs_4mb\t12mb_vs_8mb\tbv8mb_vs_8mb",
        &tsv,
    );
    format!(
        "== Figure 13: 4-thread multi-program mixes (20 mixes, weighted speedup) ==\n\
         6 MB vs 4 MB baseline   : {:+.1}% (paper: +9%)\n\
         BV 4 MB vs 4 MB         : {:+.1}% (paper: +8.7%)\n\
         8 MB vs 4 MB            : {:+.1}%\n\
         12 MB vs 8 MB           : {:+.1}% (paper: +15.7%)\n\
         BV 8 MB vs 8 MB         : {:+.1}% (paper: +11.2%)\n\
         mixes losing (BV 4 MB)  : {}/20 (paper: none)\n",
        (geomean(ws_bv6.iter().copied()) - 1.0) * 100.0,
        (geomean(ws_bv4.iter().copied()) - 1.0) * 100.0,
        (geomean(ws_8.iter().copied()) - 1.0) * 100.0,
        (geomean(ws_12.iter().copied()) - 1.0) * 100.0,
        (geomean(ws_bv8.iter().copied()) - 1.0) * 100.0,
        ws_bv4.iter().filter(|&&w| w < 0.999).count()
    )
}

/// Figure 14: energy ratios with and without word enables, all 100 traces.
#[must_use]
pub fn fig14(ctx: &Ctx) -> String {
    let model = EnergyModel::paper_default();
    let traces: Vec<_> = ctx.registry.all().cloned().collect();
    let jobs: Vec<_> = traces
        .iter()
        .flat_map(|t| {
            [
                ctx.job(&t.name, configs::base2mb()),
                ctx.job(&t.name, configs::bv2mb()),
            ]
        })
        .collect();
    ctx.plan(&jobs);
    let mut with_we = Vec::new();
    let mut without_we = Vec::new();
    let mut read_ratios = Vec::new();
    let mut tsv = Vec::new();
    for t in &traces {
        let base_run = ctx.run(t, configs::base2mb());
        let bv_run = ctx.run(t, configs::bv2mb());
        let base = model.evaluate(&base_run, LlcEnergyClass::Uncompressed);
        let w = model
            .evaluate(&bv_run, LlcEnergyClass::BaseVictim { word_enables: true })
            .ratio(&base);
        let wo = model
            .evaluate(
                &bv_run,
                LlcEnergyClass::BaseVictim {
                    word_enables: false,
                },
            )
            .ratio(&base);
        let rr = bv_run.dram_read_ratio(&base_run);
        with_we.push(w);
        without_we.push(wo);
        read_ratios.push(rr);
        tsv.push(vec![
            t.name.clone(),
            format!("{rr:.4}"),
            format!("{w:.4}"),
            format!("{wo:.4}"),
        ]);
    }
    tsv.sort_by(|a, b| a[1].partial_cmp(&b[1]).expect("ordered"));
    ctx.write_tsv(
        "fig14_energy.tsv",
        "trace\tdram_read_ratio\tenergy_ratio_word_enables\tenergy_ratio_no_word_enables",
        &tsv,
    );
    let worst_we = with_we.iter().copied().fold(0.0f64, f64::max);
    let worst_wo = without_we.iter().copied().fold(0.0f64, f64::max);
    format!(
        "== Figure 14: subsystem energy, all 100 traces ==\n\
         mean energy ratio, word enables    : {:.3} (paper: 0.935, i.e. -6.5%)\n\
         mean energy ratio, no word enables : {:.3} (paper: 0.978, i.e. -2.2%)\n\
         worst trace (word enables)         : {:.3} (paper: up to +2.3%)\n\
         worst trace (no word enables)      : {:.3} (paper: up to +6%)\n",
        geomean(with_we.iter().copied()),
        geomean(without_we.iter().copied()),
        worst_we,
        worst_wo
    )
}

/// Section VI.B.1: associativity sensitivity.
#[must_use]
pub fn sens_associativity(ctx: &Ctx) -> String {
    // 16-tags-per-set Base-Victim: 8 physical ways (the baseline it
    // mirrors is 8-way).
    let bv16tag = SimConfig::single_thread(LlcKind::BaseVictim).with_llc_size(2 * 1024 * 1024, 8);
    let unc32 = configs::base2mb().with_llc_size(2 * 1024 * 1024, 32);
    let bv = sweep(ctx, configs::bv2mb(), configs::base2mb(), false);
    let bv8 = sweep(ctx, bv16tag, configs::base2mb(), false);
    let wide = sweep(ctx, unc32, configs::base2mb(), false);
    ctx.write_tsv(
        "sens_associativity.tsv",
        "config\tipc_gain_pct",
        &[
            vec![
                "bv_32tag_16way".into(),
                format!("{:.2}", gain_pct(bv.iter())),
            ],
            vec![
                "bv_16tag_8way".into(),
                format!("{:.2}", gain_pct(bv8.iter())),
            ],
            vec!["unc_32way".into(), format!("{:.2}", gain_pct(wide.iter()))],
        ],
    );
    format!(
        "== Section VI.B.1: associativity ==\n\
         Base-Victim 32 tags (16-way)  : {:+.1}% (paper: +7.3%)\n\
         Base-Victim 16 tags (8-way)   : {:+.1}% (paper: +6.2%)\n\
         Uncompressed 32-way           : {:+.1}% (paper: ~0%)\n",
        gain_pct(bv.iter()),
        gain_pct(bv8.iter()),
        gain_pct(wide.iter())
    )
}

/// Section VI.B.4: Victim-cache replacement policy variants.
#[must_use]
pub fn sens_victim_policy(ctx: &Ctx) -> String {
    let mut s = String::from("== Section VI.B.4: victim-cache replacement variants ==\n");
    let mut tsv = Vec::new();
    for vp in VictimPolicyKind::ALL {
        let cfg = SimConfig::single_thread(LlcKind::BaseVictimWith(vp));
        let rows = sweep(ctx, cfg, configs::base2mb(), false);
        let _ = writeln!(
            s,
            "{:18}: {:+.2}% IPC, read ratio {:.3}",
            vp.name(),
            gain_pct(rows.iter()),
            read_ratio(rows.iter())
        );
        tsv.push(vec![
            vp.name().to_string(),
            format!("{:.2}", gain_pct(rows.iter())),
            format!("{:.4}", read_ratio(rows.iter())),
        ]);
    }
    ctx.write_tsv(
        "sens_victim_policy.tsv",
        "policy\tipc_gain_pct\tread_ratio",
        &tsv,
    );
    s.push_str("paper: no variant significantly beats the ECM-inspired default\n");
    s
}

/// Section VI.A compressibility statistics plus the Section V functional
/// VSC-2X capacity comparison.
#[must_use]
pub fn compressibility(ctx: &Ctx) -> String {
    let mut friendly_ratios = Vec::new();
    let mut unfriendly_ratios = Vec::new();
    let mut all_ratios = Vec::new();
    let sensitive: Vec<_> = ctx.registry.cache_sensitive().cloned().collect();
    let jobs: Vec<_> = sensitive
        .iter()
        .map(|t| ctx.job(&t.name, configs::bv2mb()))
        .collect();
    ctx.plan(&jobs);
    for t in &sensitive {
        let run = ctx.run(t, configs::bv2mb());
        let r = run.compression.mean_ratio();
        all_ratios.push(r);
        if t.compression_friendly {
            friendly_ratios.push(r);
        } else {
            unfriendly_ratios.push(r);
        }
    }
    // Functional VSC-2X capacity: drive the LLC request stream of a
    // compression-friendly trace through the functional model.
    let trace = sensitive
        .iter()
        .find(|t| t.compression_friendly)
        .expect("friendly trace");
    let mut vsc = VscLlc::new(
        bv_cache::CacheGeometry::new(2 * 1024 * 1024, 16, 64),
        PolicyKind::Lru,
    );
    let mut dcc = DccLlc::new(
        bv_cache::CacheGeometry::new(2 * 1024 * 1024, 16, 64),
        PolicyKind::Lru,
    );
    let mut gen = trace.workload.generator();
    let mut inner = NoInner;
    let mut insts = 0u64;
    // Measure occupancy only after a warmup pass has populated the sets.
    let total = 2 * (ctx.budget.warmup + ctx.budget.insts);
    let mut reset_done = false;
    while insts < total {
        let ev = gen.next_event();
        insts += ev.instructions();
        if !reset_done && insts >= total / 2 {
            vsc.reset_capacity_samples();
            dcc.reset_capacity_samples();
            reset_done = true;
        }
        let addr = bv_cache::LineAddr::from_byte_addr(ev.addr);
        if !vsc.read(addr, &mut inner).is_hit() {
            vsc.fill(addr, gen.line_data(ev.addr), &mut inner);
        }
        if !dcc.read(addr, &mut inner).is_hit() {
            dcc.fill(addr, gen.line_data(ev.addr), &mut inner);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let summary = format!(
        "== Section VI.A / V: compressibility and functional capacity ==\n\
         friendly mean compressed size   : {:.0}% of uncompressed (paper: 50%)\n\
         low-compress mean size          : {:.0}% (paper: >75%)\n\
         all-sensitive mean size         : {:.0}% (paper: 55%)\n\
         VSC-2X effective capacity       : {:.2}x (paper: close to 1.8x on functional models)\n\
         VSC-2X re-compactions           : {} (the overhead Base-Victim avoids entirely)\n\
         DCC effective capacity          : {:.2}x (super-block tags; no re-compaction)\n\
         DCC multi-line evictions        : {} (its coarse-replacement drawback)\n",
        mean(&friendly_ratios) * 100.0,
        mean(&unfriendly_ratios) * 100.0,
        mean(&all_ratios) * 100.0,
        vsc.effective_capacity_ratio(),
        vsc.recompactions(),
        dcc.effective_capacity_ratio(),
        dcc.multi_line_evictions()
    );
    ctx.write_tsv(
        "table_compressibility.tsv",
        "metric\tvalue",
        &[
            vec![
                "friendly_mean_ratio".into(),
                format!("{:.4}", mean(&friendly_ratios)),
            ],
            vec![
                "unfriendly_mean_ratio".into(),
                format!("{:.4}", mean(&unfriendly_ratios)),
            ],
            vec!["all_mean_ratio".into(), format!("{:.4}", mean(&all_ratios))],
            vec![
                "vsc_effective_capacity".into(),
                format!("{:.4}", vsc.effective_capacity_ratio()),
            ],
            vec!["vsc_recompactions".into(), vsc.recompactions().to_string()],
            vec![
                "dcc_effective_capacity".into(),
                format!("{:.4}", dcc.effective_capacity_ratio()),
            ],
            vec![
                "dcc_multi_line_evictions".into(),
                dcc.multi_line_evictions().to_string(),
            ],
        ],
    );
    summary
}

/// Ablation: which compression algorithm backs the Base-Victim LLC
/// (the paper uses BDI for its 2-cycle decompression; Section VII.A notes
/// the architecture is algorithm-agnostic).
#[must_use]
pub fn ablation_compressor(ctx: &Ctx) -> String {
    use bv_sim::CompressorKind;
    let mut s =
        String::from("== Ablation: LLC compression algorithm (Base-Victim, 60 traces) ==\n");
    let mut tsv = Vec::new();
    for ck in CompressorKind::ALL {
        let cfg = SimConfig::single_thread(LlcKind::BaseVictimCompressor(ck));
        let rows = sweep(ctx, cfg, configs::base2mb(), false);
        let _ = writeln!(
            s,
            "{:10}: {:+.2}% IPC, read ratio {:.3}, mean compressed size {:.0}%",
            ck.name(),
            gain_pct(rows.iter()),
            read_ratio(rows.iter()),
            rows.iter().map(|r| r.comp_ratio).sum::<f64>() / rows.len() as f64 * 100.0
        );
        tsv.push(vec![
            ck.name().to_string(),
            format!("{:.2}", gain_pct(rows.iter())),
            format!("{:.4}", read_ratio(rows.iter())),
        ]);
    }
    ctx.write_tsv(
        "ablation_compressor.tsv",
        "algorithm\tipc_gain_pct\tread_ratio",
        &tsv,
    );
    s.push_str(
        "expected: BDI leads; zero-only detection alone captures a fraction of the benefit\n",
    );
    s
}

/// Ablation: inclusive (paper default) vs non-inclusive (Section IV.B.3)
/// Base-Victim. The non-inclusive variant can park dirty victims, saving
/// writeback traffic at the cost of more protocol complexity.
#[must_use]
pub fn ablation_inclusion(ctx: &Ctx) -> String {
    let traces: Vec<_> = ctx.registry.cache_sensitive().cloned().collect();
    let jobs: Vec<_> = traces
        .iter()
        .flat_map(|t| {
            [
                ctx.job(&t.name, configs::base2mb()),
                ctx.job(&t.name, configs::bv2mb()),
                ctx.job(
                    &t.name,
                    SimConfig::single_thread(LlcKind::BaseVictimNonInclusive),
                ),
            ]
        })
        .collect();
    ctx.plan(&jobs);
    let mut ipc_inc = Vec::new();
    let mut ipc_ni = Vec::new();
    let mut wr_inc = 0u64;
    let mut wr_ni = 0u64;
    let mut wr_base = 0u64;
    for t in &traces {
        let base = ctx.run(t, configs::base2mb());
        let inc = ctx.run(t, configs::bv2mb());
        let ni = ctx.run(t, SimConfig::single_thread(LlcKind::BaseVictimNonInclusive));
        ipc_inc.push(inc.ipc() / base.ipc());
        ipc_ni.push(ni.ipc() / base.ipc());
        wr_inc += inc.dram.writes;
        wr_ni += ni.dram.writes;
        wr_base += base.dram.writes;
    }
    ctx.write_tsv(
        "ablation_inclusion.tsv",
        "metric\tinclusive\tnon_inclusive",
        &[
            vec![
                "ipc_gain_pct".into(),
                format!("{:.2}", (geomean(ipc_inc.iter().copied()) - 1.0) * 100.0),
                format!("{:.2}", (geomean(ipc_ni.iter().copied()) - 1.0) * 100.0),
            ],
            vec![
                "dram_write_ratio_vs_base".into(),
                format!("{:.4}", wr_inc as f64 / wr_base as f64),
                format!("{:.4}", wr_ni as f64 / wr_base as f64),
            ],
        ],
    );
    format!(
        "== Ablation: inclusion mode (Section IV.B.3) ==\n\
         inclusive     : {:+.1}% IPC, DRAM write ratio {:.3} (clean victims: no write savings, by design)\n\
         non-inclusive : {:+.1}% IPC, DRAM write ratio {:.3} (dirty victims park, deferring writebacks)\n",
        (geomean(ipc_inc.iter().copied()) - 1.0) * 100.0,
        wr_inc as f64 / wr_base as f64,
        (geomean(ipc_ni.iter().copied()) - 1.0) * 100.0,
        wr_ni as f64 / wr_base as f64,
    )
}

/// Ablation: prefetching x compression interplay. The paper builds on the
/// observation (Alameldeen & Wood, HPCA 2007) that LLC compression and
/// prefetching interact positively: the victim cache catches
/// prematurely-evicted prefetched lines.
#[must_use]
pub fn ablation_prefetch(ctx: &Ctx) -> String {
    let traces: Vec<_> = ctx.registry.cache_sensitive().cloned().collect();
    let degrees = [0u32, 2, 4, 8];
    let mut jobs = Vec::with_capacity(traces.len() * degrees.len() * 2);
    for degree in degrees {
        for t in &traces {
            for base in [configs::base2mb(), configs::bv2mb()] {
                let mut cfg = base;
                cfg.prefetch_degree = degree;
                jobs.push(ctx.job(&t.name, cfg));
            }
        }
    }
    ctx.plan(&jobs);
    let mut s = String::from("== Ablation: prefetch x compression interplay ==\n");
    let mut tsv = Vec::new();
    for degree in degrees {
        let mut base_cfg = configs::base2mb();
        base_cfg.prefetch_degree = degree;
        let mut bv_cfg = configs::bv2mb();
        bv_cfg.prefetch_degree = degree;
        let mut ratios = Vec::new();
        for t in &traces {
            let base = ctx.run(t, base_cfg);
            let bv = ctx.run(t, bv_cfg);
            ratios.push(bv.ipc() / base.ipc());
        }
        let gain = (geomean(ratios.iter().copied()) - 1.0) * 100.0;
        let _ = writeln!(s, "prefetch degree {degree}: compression gains {gain:+.2}%");
        tsv.push(vec![degree.to_string(), format!("{gain:.2}")]);
    }
    ctx.write_tsv(
        "ablation_prefetch.tsv",
        "prefetch_degree\tbv_gain_pct",
        &tsv,
    );
    s.push_str(
        "expected: compression gains persist (and often grow) with aggressive prefetching\n",
    );
    s
}

/// Future work (paper §VII.C): CAMP-style size-aware insertion in the
/// Baseline cache, on top of Base-Victim compression.
#[must_use]
pub fn future_work_camp(ctx: &Ctx) -> String {
    let camp_base = configs::base2mb().with_policy(PolicyKind::CampLite);
    let camp_bv = configs::bv2mb().with_policy(PolicyKind::CampLite);
    // All normalized to the NRU uncompressed baseline.
    let camp_alone = sweep(ctx, camp_base, configs::base2mb(), false);
    let camp_plus_bv = sweep(ctx, camp_bv, configs::base2mb(), false);
    let bv_alone = sweep(ctx, configs::bv2mb(), configs::base2mb(), false);
    let on_top = sweep(ctx, camp_bv, camp_base, false);
    ctx.write_tsv(
        "future_work_camp.tsv",
        "config\tipc_gain_pct",
        &[
            vec![
                "camp_alone".into(),
                format!("{:.2}", gain_pct(camp_alone.iter())),
            ],
            vec![
                "bv_alone".into(),
                format!("{:.2}", gain_pct(bv_alone.iter())),
            ],
            vec![
                "camp_plus_bv".into(),
                format!("{:.2}", gain_pct(camp_plus_bv.iter())),
            ],
            vec![
                "bv_on_top_of_camp".into(),
                format!("{:.2}", gain_pct(on_top.iter())),
            ],
        ],
    );
    format!(
        "== Future work (§VII.C): CAMP in the Baseline cache ==\n\
         CAMP insertion alone      : {:+.1}% vs NRU baseline\n\
         Base-Victim alone         : {:+.1}%\n\
         CAMP + Base-Victim        : {:+.1}%\n\
         BV on top of CAMP baseline: {:+.1}% (losers {}/60 — the guarantee composes)\n",
        gain_pct(camp_alone.iter()),
        gain_pct(bv_alone.iter()),
        gain_pct(camp_plus_bv.iter()),
        gain_pct(on_top.iter()),
        losers(&on_top, 0.999),
    )
}

/// Plans every single-core job the standard experiment suite needs and
/// submits them to the runner as one deduplicated batch. The
/// `experiments` binary (and `bvsim sweep`) call this first so the whole
/// suite's simulations run across the workers at once; the figure
/// functions then assemble their tables from the engine's results.
pub fn plan_suite(ctx: &Ctx) -> bv_runner::ExecutionReport {
    use bv_sim::CompressorKind;
    let mut jobs = Vec::new();
    let sensitive: Vec<String> = ctx
        .registry
        .cache_sensitive()
        .map(|t| t.name.clone())
        .collect();
    let all: Vec<String> = ctx.registry.all().map(|t| t.name.clone()).collect();

    let mut sensitive_cfgs = vec![
        configs::base2mb(),
        configs::bv2mb(),
        SimConfig::single_thread(LlcKind::TwoTag),
        SimConfig::single_thread(LlcKind::TwoTagEcm),
        configs::unc3mb(),
        // fig11: size sensitivity.
        configs::base2mb().with_llc_size(4 * 1024 * 1024, 16),
        configs::base2mb().with_llc_size(6 * 1024 * 1024, 24),
        SimConfig::single_thread(LlcKind::BaseVictim).with_llc_size(4 * 1024 * 1024, 16),
        // associativity sensitivity.
        SimConfig::single_thread(LlcKind::BaseVictim).with_llc_size(2 * 1024 * 1024, 8),
        configs::base2mb().with_llc_size(2 * 1024 * 1024, 32),
        // inclusion ablation.
        SimConfig::single_thread(LlcKind::BaseVictimNonInclusive),
    ];
    // fig10 + future work: replacement policies under and over compression.
    for policy in [
        PolicyKind::Srrip,
        PolicyKind::CharLite,
        PolicyKind::CampLite,
    ] {
        sensitive_cfgs.push(configs::base2mb().with_policy(policy));
        sensitive_cfgs.push(configs::bv2mb().with_policy(policy));
    }
    for vp in VictimPolicyKind::ALL {
        sensitive_cfgs.push(SimConfig::single_thread(LlcKind::BaseVictimWith(vp)));
    }
    for ck in CompressorKind::ALL {
        sensitive_cfgs.push(SimConfig::single_thread(LlcKind::BaseVictimCompressor(ck)));
    }
    // prefetch ablation.
    for degree in [0u32, 2, 4, 8] {
        for base in [configs::base2mb(), configs::bv2mb()] {
            let mut cfg = base;
            cfg.prefetch_degree = degree;
            sensitive_cfgs.push(cfg);
        }
    }
    for cfg in &sensitive_cfgs {
        for name in &sensitive {
            jobs.push(ctx.job(name, *cfg));
        }
    }
    // fig12 + fig14: every trace, including cache-insensitive ones.
    for cfg in [configs::base2mb(), configs::bv2mb(), configs::unc3mb()] {
        for name in &all {
            jobs.push(ctx.job(name, cfg));
        }
    }
    ctx.plan(&jobs)
}
