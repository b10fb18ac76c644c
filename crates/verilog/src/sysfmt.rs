//! Verilog `$display`-style format rendering.

use crate::logic::LogicVec;

/// Renders `fmt` with `args`, supporting the directives used by generated
/// testbenches: `%d`, `%0d`, `%b`, `%h`/`%x`, `%0t`/`%t`, `%c`, `%%`.
///
/// `%d` pads to the natural decimal width of the operand; `%0d` does not.
/// Extra arguments are appended space-separated (as Icarus does); missing
/// arguments render as `<missing>`.
pub fn format_display(fmt: &str, args: &[LogicVec], time: u64) -> String {
    let mut out = String::with_capacity(fmt.len() + args.len() * 8);
    let mut args_iter = args.iter();
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let mut zero_flag = false;
        let mut width_digits = String::new();
        while let Some(&d) = chars.peek() {
            if d == '0' && width_digits.is_empty() {
                zero_flag = true;
                chars.next();
            } else if d.is_ascii_digit() {
                width_digits.push(d);
                chars.next();
            } else {
                break;
            }
        }
        let Some(spec) = chars.next() else {
            out.push('%');
            break;
        };
        match spec {
            '%' => out.push('%'),
            'd' | 'D' => match args_iter.next() {
                None => out.push_str("<missing>"),
                Some(v) => {
                    let s = v.to_decimal_string();
                    if zero_flag && width_digits.is_empty() {
                        out.push_str(&s);
                    } else {
                        // %d pads to the max decimal width of the operand.
                        let natural = max_decimal_width(v.width());
                        let w = width_digits.parse::<usize>().unwrap_or(natural);
                        for _ in s.len()..w {
                            out.push(' ');
                        }
                        out.push_str(&s);
                    }
                }
            },
            'b' | 'B' => match args_iter.next() {
                None => out.push_str("<missing>"),
                Some(v) => out.push_str(&v.to_binary_string()),
            },
            'h' | 'H' | 'x' | 'X' => match args_iter.next() {
                None => out.push_str("<missing>"),
                Some(v) => out.push_str(&v.to_hex_string()),
            },
            't' | 'T' => {
                // A time directive prints its argument, or with none left
                // the simulation time.
                match args_iter.next() {
                    None => out.push_str(&time.to_string()),
                    Some(v) => out.push_str(&v.to_decimal_string()),
                }
            }
            'c' => match args_iter.next() {
                None => out.push_str("<missing>"),
                Some(v) => {
                    let byte = v.to_u64().map(|b| (b & 0xff) as u8).unwrap_or(b'?');
                    out.push(byte as char);
                }
            },
            's' => match args_iter.next() {
                None => out.push_str("<missing>"),
                Some(v) => out.push_str(&v.to_decimal_string()),
            },
            other => {
                out.push('%');
                out.push(other);
            }
        }
    }
    for rest in args_iter {
        out.push(' ');
        out.push_str(&rest.to_decimal_string());
    }
    out
}

/// The number of decimal digits needed for the largest value of `width` bits.
fn max_decimal_width(width: usize) -> usize {
    // ceil(width * log10(2)), computed without floating point drift.
    (width * 30103).div_ceil(100_000).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_directives() {
        let v = LogicVec::from_u64(8, 0xa5);
        let s = format_display("d=%0d b=%b h=%h", &[v.clone(), v.clone(), v], 0);
        assert_eq!(s, "d=165 b=10100101 h=a5");
    }

    #[test]
    fn percent_d_pads() {
        let v = LogicVec::from_u64(8, 7);
        assert_eq!(format_display("%d", &[v], 0), "  7");
    }

    #[test]
    fn unknown_values() {
        let v = LogicVec::filled_x(4);
        assert_eq!(
            format_display("%0d %b %h", &[v.clone(), v.clone(), v], 0),
            "x xxxx x"
        );
    }

    #[test]
    fn literal_percent_and_missing() {
        assert_eq!(
            format_display("100%% done %0d", &[], 0),
            "100% done <missing>"
        );
    }

    #[test]
    fn extra_args_appended() {
        let a = LogicVec::from_u64(4, 3);
        let b = LogicVec::from_u64(4, 9);
        assert_eq!(format_display("v=%0d", &[a, b], 0), "v=3 9");
    }

    #[test]
    fn time_directive() {
        let t = LogicVec::from_u64(64, 120);
        assert_eq!(format_display("t=%0t", &[t], 120), "t=120");
    }

    #[test]
    fn max_decimal_width_sane() {
        assert_eq!(max_decimal_width(1), 1);
        assert_eq!(max_decimal_width(8), 3);
        assert_eq!(max_decimal_width(16), 5);
        assert_eq!(max_decimal_width(64), 20);
    }
}
