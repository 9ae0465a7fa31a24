//! In-storage processing integration (the paper's GenStore case study,
//! mode 3 of Fig. 12): SAGe's hardware inside the SSD controller feeds
//! an in-storage filter, and only unfiltered reads cross the host
//! interface — in 2-bit packed `SAGe_Read` format.
//!
//! It first walks the storage side: it places a 256 MiB archive on the
//! aligned data layout, writes the same pages through the genomic FTL,
//! checks that both keep multi-plane alignment, and times `SAGe_Write`
//! and `SAGe_Read` on the device model. It then prices the SAGe logic,
//! compares SAGeSSD + ISF against the alternatives on the pipeline
//! model, and serves a predicate scan through a session.
//!
//! Run with: `cargo run --release --example in_storage_filter`

use sage::client::DatasetBuilder;
use sage::core::OutputFormat;
use sage::genomics::sim::{simulate_dataset, DatasetProfile};
use sage::hw::{HwCost, IntegrationMode};
use sage::pipeline::{run_experiment, AnalysisKind, DatasetModel, PrepKind, SystemConfig};
use sage::ssd::{Ftl, SageLayout, SsdCommand, SsdConfig, SsdModel};

fn main() {
    // --- Storage side: write a compressed read set with SAGe_Write ---
    let cfg = SsdConfig::pcie();
    let ssd = SsdModel::new(cfg.clone());
    let compressed_bytes = 256 << 20; // a 256 MiB SAGe archive

    // Where the pages land (§5.3): the round-robin layout, and the FTL
    // that maps the same genomic pages with an aligned write pointer.
    let layout = SageLayout::place(&cfg, compressed_bytes, 0);
    let mut ftl = Ftl::new(cfg.clone());
    for lpn in 0..layout.n_pages() as u64 {
        ftl.write_genomic(lpn);
    }
    let w = ssd.execute(SsdCommand::SageWrite {
        bytes: compressed_bytes,
    });
    println!(
        "SAGe_Write: {} MiB placed in {:.2} ms, aligned layout: {}",
        compressed_bytes >> 20,
        w.seconds * 1e3,
        layout.is_aligned(&cfg) && ftl.genomic_alignment_holds()
    );
    let r = ssd.execute(SsdCommand::SageRead {
        bytes: compressed_bytes,
        format: OutputFormat::Packed2,
    });
    println!(
        "SAGe_Read : streamed at {:.2} GB/s internal bandwidth",
        compressed_bytes as f64 / r.seconds / 1e9
    );

    // --- Hardware budget: what mode-3 integration costs ---
    let hw = HwCost::new(ssd.config().channels, IntegrationMode::InSsd);
    println!(
        "SAGe logic: {:.4} mm2, {:.2} mW ({:.2}% of the controller cores)\n",
        hw.total_area_mm2(),
        hw.total_power_mw(),
        hw.fraction_of_ssd_controller_cores() * 100.0
    );

    // --- System side: SAGeSSD + ISF vs alternatives ---
    let model = DatasetModel {
        name: "metagenomic-abundance".into(),
        isf_filter_fraction: 0.8, // GenStore-EF-style high-filter task
        ..DatasetModel::example_short()
    };
    let sys = SystemConfig::pcie();
    let plain = run_experiment(PrepKind::SageHw, AnalysisKind::Gem, &model, &sys);
    let ideal = run_experiment(PrepKind::ZeroTimeDec, AnalysisKind::Gem, &model, &sys);
    let isf = run_experiment(
        PrepKind::SageSsd,
        AnalysisKind::GenStoreIsf {
            filter_fraction: model.isf_filter_fraction,
        },
        &model,
        &sys,
    );
    println!(
        "SAGe (outside SSD) : {:>8.2} MReads/s",
        plain.reads_per_sec / 1e6
    );
    println!(
        "0TimeDec (no ISF)  : {:>8.2} MReads/s  <- even an ideal decompressor",
        ideal.reads_per_sec / 1e6
    );
    println!("                                        cannot use the in-storage filter");
    println!(
        "SAGeSSD + ISF      : {:>8.2} MReads/s  ({:.1}x over 0TimeDec)",
        isf.reads_per_sec / 1e6,
        ideal.seconds / isf.seconds
    );

    // --- Store-served filtering: the same idea through a session ---
    // A predicate scan over the chunk store is the software analogue
    // of the ISF: the store walks every chunk (charging its devices)
    // and only the matching reads come back to the caller. The
    // completion's report shows what crossing the whole dataset cost.
    let ds = simulate_dataset(&DatasetProfile::tiny_short(), 23);
    let dataset = DatasetBuilder::new()
        .chunk_reads(32)
        .cache_chunks(0) // every chunk fetch pays its device
        .ssd(SsdConfig::pcie())
        .encode(&ds.reads)
        .expect("serve dataset");
    // Abundance-style filter stand-in: keep reads whose leading
    // k-mer starts with A (a content predicate the host never sees
    // the rejected reads for).
    let scan = dataset
        .session()
        .scan(|r| r.seq.first() == Some(&sage::genomics::Base::A))
        .expect("submit")
        .wait()
        .expect("scan");
    println!(
        "\nstore-served filter: {} of {} reads pass ({:.0}% filtered); \
         scan touched {} chunks, charged {:.3} ms of device time",
        scan.value.len(),
        ds.reads.len(),
        (1.0 - scan.value.len() as f64 / ds.reads.len() as f64) * 100.0,
        scan.report.chunks_touched,
        scan.report.device_seconds() * 1e3,
    );
}
