//! The page file: fixed-size page I/O over one backing file.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use bytes::Bytes;

use crate::page::{PageId, PAGE_SIZE};

/// A file of fixed-size pages. Not internally synchronized — wrap it in a
/// [`crate::BufferPool`] (which owns the lock) for shared access.
#[derive(Debug)]
pub struct PageFile {
    file: File,
    pages: u64,
}

impl PageFile {
    /// Creates (truncating) a fresh page file.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(PageFile { file, pages: 0 })
    }

    /// Opens an existing page file. Errors if the length is not a
    /// multiple of the page size (torn file).
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("file length {len} is not page aligned"),
            ));
        }
        Ok(PageFile {
            file,
            pages: len / PAGE_SIZE as u64,
        })
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> u64 {
        self.pages
    }

    /// Allocates a fresh zeroed page at the end of the file. The file is
    /// extended, not written: the new page reads as zeros, and the page's
    /// one write is the caller's.
    pub fn allocate(&mut self) -> io::Result<PageId> {
        let id = PageId(self.pages);
        self.file.set_len((id.0 + 1) * PAGE_SIZE as u64)?;
        self.pages += 1;
        Ok(id)
    }

    /// Reads one page.
    pub fn read_page(&mut self, id: PageId) -> io::Result<Bytes> {
        self.check(id)?;
        yask_util::failpoint::fire("pager.read")?;
        let mut buf = vec![0u8; PAGE_SIZE];
        self.file.seek(SeekFrom::Start(id.offset()))?;
        self.file.read_exact(&mut buf)?;
        Ok(Bytes::from(buf))
    }

    /// Writes one page (must be exactly [`PAGE_SIZE`] bytes).
    pub fn write_page(&mut self, id: PageId, data: &[u8]) -> io::Result<()> {
        self.check(id)?;
        if data.len() != PAGE_SIZE {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("page write of {} bytes", data.len()),
            ));
        }
        yask_util::failpoint::fire("pager.write")?;
        self.file.seek(SeekFrom::Start(id.offset()))?;
        self.file.write_all(data)
    }

    /// Flushes file contents to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        yask_util::failpoint::fire("pager.sync")?;
        self.file.sync_all()
    }

    fn check(&self, id: PageId) -> io::Result<()> {
        if id.0 >= self.pages {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("page {id} out of bounds ({} pages)", self.pages),
            ))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("yask-pagefile-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn allocate_write_read_round_trip() {
        let path = tmp("rw.db");
        let mut f = PageFile::create(&path).unwrap();
        let a = f.allocate().unwrap();
        let b = f.allocate().unwrap();
        assert_eq!((a, b), (PageId(0), PageId(1)));
        let mut data = vec![0u8; PAGE_SIZE];
        data[0] = 0xAB;
        data[PAGE_SIZE - 1] = 0xCD;
        f.write_page(b, &data).unwrap();
        assert_eq!(&f.read_page(b).unwrap()[..], &data[..]);
        // Page a stays zeroed.
        assert!(f.read_page(a).unwrap().iter().all(|&x| x == 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_preserves_pages() {
        let path = tmp("reopen.db");
        {
            let mut f = PageFile::create(&path).unwrap();
            let p = f.allocate().unwrap();
            let mut data = vec![7u8; PAGE_SIZE];
            data[100] = 42;
            f.write_page(p, &data).unwrap();
            f.sync().unwrap();
        }
        let mut f = PageFile::open(&path).unwrap();
        assert_eq!(f.page_count(), 1);
        assert_eq!(f.read_page(PageId(0)).unwrap()[100], 42);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_bounds_and_bad_sizes_error() {
        let path = tmp("bounds.db");
        let mut f = PageFile::create(&path).unwrap();
        assert!(f.read_page(PageId(0)).is_err());
        let p = f.allocate().unwrap();
        assert!(f.write_page(p, &[0u8; 10]).is_err());
        assert!(f.write_page(PageId(5), &[0u8; PAGE_SIZE]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_torn_files() {
        let path = tmp("torn.db");
        std::fs::write(&path, vec![0u8; PAGE_SIZE + 17]).unwrap();
        let err = PageFile::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }
}
