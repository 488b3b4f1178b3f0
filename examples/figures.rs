//! The paper's Figures 1–3 as ASCII walks: balanced strings, a strictly
//! Catalan codeword and one of its cyclic shifts, and the 2-maximality
//! transform.
//!
//! ```text
//! cargo run --release --example figures
//! ```

use blind_rendezvous::strings::render::{describe, render_maximality_transform, render_walk};
use blind_rendezvous::strings::{rmap::RCode, Bits};

fn header(title: &str) {
    println!();
    println!("==== {title} ====");
    println!();
}

fn main() {
    header("Figure 1 — walks and balanced strings");
    for (label, literal) in [("(a)", "11010"), ("(b)", "110001")] {
        let bits: Bits = literal.parse().expect("literal");
        println!("{label} the graph of {literal} ({}):", describe(&bits));
        print!("{}", render_walk(&bits));
        println!();
    }

    header("Figure 2 — a strictly Catalan codeword and a shift of it");
    let word = RCode::new(3)
        .encode(&Bits::encode_int(0b101, 3))
        .into_bits();
    println!("R(101) ({}):", describe(&word));
    print!("{}", render_walk(&word));
    println!();
    let shifted = word.cyclic_shift(5);
    println!("S^5 R(101) ({}):", describe(&shifted));
    print!("{}", render_walk(&shifted));

    header("Figure 3 — the 2-maximality transform");
    let z: Bits = "110100".parse().expect("literal");
    print!("{}", render_maximality_transform(&z));
}
