//! A reader for the uncompressed ustar archives `git archive` writes:
//! regular files, directories, and the pax global header in which git
//! records the archived commit id.

use crate::util::Res;

/// One regular file of an archive.
pub struct Entry {
    /// Path inside the archive (`/`-separated, relative).
    pub path: String,
    /// File contents.
    pub data: Vec<u8>,
}

/// An archive's files and the commit id git recorded in it.
pub struct Archive {
    /// `comment` of the pax global header (`git archive` writes the
    /// commit id there); `None` when absent.
    pub commit: Option<String>,
    /// Regular files in archive order.
    pub files: Vec<Entry>,
}

fn field(block: &[u8], from: usize, len: usize) -> &[u8] {
    let raw = &block[from..from + len];
    let end = raw.iter().position(|&b| b == 0).unwrap_or(len);
    &raw[..end]
}

fn octal(block: &[u8], from: usize, len: usize) -> Res<usize> {
    let text = String::from_utf8_lossy(field(block, from, len))
        .trim()
        .to_string();
    usize::from_str_radix(&text, 8).map_err(|_| format!("bad octal field `{text}` in tar header"))
}

/// pax records: `"<len> <key>=<value>\n"` repeated.
fn pax_records(mut data: &[u8]) -> Res<Vec<(String, String)>> {
    let mut out = Vec::new();
    while !data.is_empty() {
        let space = data
            .iter()
            .position(|&b| b == b' ')
            .ok_or("malformed pax record")?;
        let len: usize = std::str::from_utf8(&data[..space])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or("malformed pax record length")?;
        if len <= space + 1 || len > data.len() {
            return Err("pax record overruns its header".into());
        }
        let record = String::from_utf8_lossy(&data[space + 1..len - 1]).into_owned();
        let (key, value) = record.split_once('=').ok_or("pax record without `=`")?;
        out.push((key.to_string(), value.to_string()));
        data = &data[len..];
    }
    Ok(out)
}

/// Parse a whole archive held in memory.
pub fn parse(bytes: &[u8]) -> Res<Archive> {
    let mut archive = Archive {
        commit: None,
        files: Vec::new(),
    };
    let mut next_path: Option<String> = None;
    let mut at = 0;
    while at + 512 <= bytes.len() {
        let block = &bytes[at..at + 512];
        if block.iter().all(|&b| b == 0) {
            break;
        }
        let size = octal(block, 124, 12)?;
        let data_at = at + 512;
        let data = bytes
            .get(data_at..data_at + size)
            .ok_or("tar entry overruns the archive")?;
        let name = String::from_utf8_lossy(field(block, 0, 100)).into_owned();
        let prefix = String::from_utf8_lossy(field(block, 345, 155)).into_owned();
        let path = next_path.take().unwrap_or_else(|| {
            if prefix.is_empty() {
                name
            } else {
                format!("{prefix}/{name}")
            }
        });
        match block[156] {
            b'g' => {
                for (key, value) in pax_records(data)? {
                    if key == "comment" {
                        archive.commit = Some(value);
                    }
                }
            }
            b'x' => {
                for (key, value) in pax_records(data)? {
                    if key == "path" {
                        next_path = Some(value);
                    }
                }
            }
            b'0' | 0 => archive.files.push(Entry {
                path,
                data: data.to_vec(),
            }),
            b'5' => {}
            other => return Err(format!("unsupported tar entry type {other} at `{path}`")),
        }
        at = data_at + size.div_ceil(512) * 512;
    }
    Ok(archive)
}
