//! Everything over **real TCP sockets** on loopback — no simulator involved:
//! start a DPM-like storage node, then drive it with the same commands the
//! `davix` CLI binary exposes (get / put / ranged get / ls / stat / rm).
//!
//! ```sh
//! cargo run --example real_tcp_tools
//! ```
//!
//! This is the deployment story of the real libdavix tools (`davix-get`,
//! `davix-put`, `davix-ls`…) reproduced end-to-end: the identical client
//! stack the benchmarks measure under simulation, bound to OS sockets.

use davix_cli::{parse_ranges, real_client, run_command, start_server, Command, Strategy};

fn main() {
    // A scratch directory the server will preload.
    let root = std::env::temp_dir().join(format!("davix-example-{}", std::process::id()));
    std::fs::create_dir_all(root.join("run2014")).expect("mkdir");
    let events: Vec<u8> = (0..200_000usize).map(|i| (i % 249) as u8).collect();
    std::fs::write(root.join("run2014/events.root"), &events).expect("write");
    std::fs::write(root.join("README"), b"WLCG-style scratch space\n").expect("write");

    // `davix serve --root <dir> --addr 127.0.0.1:0`
    let (_node, addr, loaded) = start_server("127.0.0.1:0", Some(&root)).expect("server");
    println!("serving {loaded} objects on http://{addr}/  (real TCP)\n");

    let client = real_client(davix::Config::default());
    let base = format!("http://{addr}");

    // davix stat
    let mut out = Vec::new();
    run_command(&client, &Command::Stat { url: format!("{base}/run2014/events.root") }, &mut out)
        .expect("stat");
    print!("$ davix stat …/events.root\n{}", String::from_utf8_lossy(&out));

    // davix get --ranges: one multi-range request for three fragments.
    let mut out = Vec::new();
    let ranges = parse_ranges("0-15,100000-100015,199984-199999").expect("ranges");
    run_command(
        &client,
        &Command::Get {
            url: format!("{base}/run2014/events.root"),
            output: None,
            ranges,
            strategy: Strategy::Direct,
            cache_mb: None,
            readahead: false,
        },
        &mut out,
    )
    .expect("ranged get");
    println!("\n$ davix get --ranges 0-15,100000-100015,199984-199999 …/events.root");
    println!("fetched {} bytes in one vectored request", out.len());
    assert_eq!(&out[..16], &events[..16]);
    assert_eq!(&out[16..32], &events[100_000..100_016]);
    assert_eq!(&out[32..48], &events[199_984..200_000]);

    // davix put
    let upload = root.join("histogram.bin");
    std::fs::write(&upload, vec![0x42u8; 4096]).expect("write");
    let mut out = Vec::new();
    run_command(
        &client,
        &Command::Put {
            file: upload,
            url: format!("{base}/results/histogram.bin"),
            streams: None,
            chunk_mb: None,
        },
        &mut out,
    )
    .expect("put");
    print!(
        "\n$ davix put histogram.bin …/results/histogram.bin\n{}",
        String::from_utf8_lossy(&out)
    );

    // davix ls -l /
    let mut out = Vec::new();
    run_command(&client, &Command::Ls { url: format!("{base}/"), long: true }, &mut out)
        .expect("ls");
    println!("\n$ davix ls -l /\n{}", String::from_utf8_lossy(&out));

    // davix rm
    let mut out = Vec::new();
    run_command(&client, &Command::Rm { url: format!("{base}/README") }, &mut out).expect("rm");
    print!("$ davix rm …/README\n{}", String::from_utf8_lossy(&out));

    let m = client.metrics();
    println!(
        "\nclient metrics: {} requests over {} TCP connection(s) (reuse ratio {:.0}%)",
        m.requests,
        m.sessions_created,
        m.reuse_ratio() * 100.0
    );
    std::fs::remove_dir_all(&root).ok();
}
