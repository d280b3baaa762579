//! Row-major storage for a collection of synchronized time series.
//!
//! The paper's input is a matrix `X` of size `N × L`: `N` series, each of
//! length `L`, where `x_ij` is the value collected at location `i` at time
//! `j`. [`TimeSeriesMatrix`] stores exactly that, contiguously row-major so
//! that a window `X[i, a..b]` is a contiguous slice — the access pattern
//! every engine in this workspace is built around.

use crate::error::TsError;

/// A dense `N × L` matrix of synchronized time series (rows = series).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesMatrix {
    n: usize,
    len: usize,
    data: Vec<f64>,
}

impl TimeSeriesMatrix {
    /// Creates a matrix from row vectors. All rows must share one length.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, TsError> {
        if rows.is_empty() {
            return Err(TsError::Empty);
        }
        let len = rows[0].len();
        if len == 0 {
            return Err(TsError::Empty);
        }
        let mut data = Vec::with_capacity(rows.len() * len);
        for row in &rows {
            if row.len() != len {
                return Err(TsError::DimensionMismatch {
                    expected: len,
                    found: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            n: rows.len(),
            len,
            data,
        })
    }

    /// Creates a matrix from a flat row-major buffer.
    pub fn from_flat(n: usize, len: usize, data: Vec<f64>) -> Result<Self, TsError> {
        if n == 0 || len == 0 {
            return Err(TsError::Empty);
        }
        if data.len() != n * len {
            return Err(TsError::DimensionMismatch {
                expected: n * len,
                found: data.len(),
            });
        }
        Ok(Self { n, len, data })
    }

    /// An `n × len` matrix of zeros.
    pub fn zeros(n: usize, len: usize) -> Result<Self, TsError> {
        Self::from_flat(n, len, vec![0.0; n * len])
    }

    /// Number of series (rows).
    #[inline]
    pub fn n_series(&self) -> usize {
        self.n
    }

    /// Length of every series (columns).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always `false`: construction rejects empty matrices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Borrow series `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i >= n_series()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.len..(i + 1) * self.len]
    }

    /// Mutably borrow series `i`.
    ///
    /// # Panics
    /// Panics if `i >= n_series()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.len..(i + 1) * self.len]
    }

    /// Borrow the window `X[i, start..start+width]`.
    ///
    /// Returns an error when the window falls outside the series.
    pub fn window(&self, i: usize, start: usize, width: usize) -> Result<&[f64], TsError> {
        if i >= self.n {
            return Err(TsError::OutOfRange {
                requested: i,
                available: self.n,
            });
        }
        let end = start
            .checked_add(width)
            .ok_or(TsError::InvalidParameter("window overflow".into()))?;
        if end > self.len {
            return Err(TsError::OutOfRange {
                requested: end,
                available: self.len,
            });
        }
        Ok(&self.row(i)[start..end])
    }

    /// Single element access.
    ///
    /// # Panics
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.len, "index out of bounds");
        self.data[i * self.len + j]
    }

    /// Single element write.
    ///
    /// # Panics
    /// Panics when out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.n && j < self.len, "index out of bounds");
        self.data[i * self.len + j] = v;
    }

    /// Iterate over all rows.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.len)
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Restrict to the column range `[start, end)` — the paper's query range
    /// `r = (s, e)` applied up front. Copies the selected region.
    pub fn slice_columns(&self, start: usize, end: usize) -> Result<Self, TsError> {
        if start >= end {
            return Err(TsError::InvalidParameter(format!(
                "empty column range {start}..{end}"
            )));
        }
        if end > self.len {
            return Err(TsError::OutOfRange {
                requested: end,
                available: self.len,
            });
        }
        let width = end - start;
        let mut data = Vec::with_capacity(self.n * width);
        for i in 0..self.n {
            data.extend_from_slice(&self.row(i)[start..end]);
        }
        Self::from_flat(self.n, width, data)
    }

    /// Append new columns (later timestamps) from a matrix with the same
    /// series count — the streaming-arrival primitive. O(N·(L + Δ)).
    pub fn append_columns(&mut self, cols: &TimeSeriesMatrix) -> Result<(), TsError> {
        if cols.n_series() != self.n {
            return Err(TsError::DimensionMismatch {
                expected: self.n,
                found: cols.n_series(),
            });
        }
        let add = cols.len();
        let new_len = self.len + add;
        let mut data = Vec::with_capacity(self.n * new_len);
        for i in 0..self.n {
            data.extend_from_slice(self.row(i));
            data.extend_from_slice(cols.row(i));
        }
        self.data = data;
        self.len = new_len;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TimeSeriesMatrix {
        TimeSeriesMatrix::from_rows(vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![5.0, 6.0, 7.0, 8.0],
            vec![9.0, 10.0, 11.0, 12.0],
        ])
        .unwrap()
    }

    #[test]
    fn from_rows_dimensions() {
        let m = sample();
        assert_eq!(m.n_series(), 3);
        assert_eq!(m.len(), 4);
        assert_eq!(m.row(1), &[5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = TimeSeriesMatrix::from_rows(vec![vec![1.0, 2.0], vec![1.0]]).unwrap_err();
        assert_eq!(
            err,
            TsError::DimensionMismatch {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert_eq!(
            TimeSeriesMatrix::from_rows(vec![]).unwrap_err(),
            TsError::Empty
        );
        assert_eq!(
            TimeSeriesMatrix::from_rows(vec![vec![]]).unwrap_err(),
            TsError::Empty
        );
    }

    #[test]
    fn from_flat_roundtrip() {
        let m = TimeSeriesMatrix::from_flat(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(m.row(0), &[1., 2., 3.]);
        assert_eq!(m.row(1), &[4., 5., 6.]);
        assert_eq!(m.as_slice(), &[1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    fn from_flat_rejects_bad_size() {
        assert!(TimeSeriesMatrix::from_flat(2, 3, vec![0.0; 5]).is_err());
        assert!(TimeSeriesMatrix::from_flat(0, 3, vec![]).is_err());
    }

    #[test]
    fn window_access() {
        let m = sample();
        assert_eq!(m.window(0, 1, 2).unwrap(), &[2.0, 3.0]);
        assert_eq!(m.window(2, 0, 4).unwrap(), &[9.0, 10.0, 11.0, 12.0]);
        assert!(m.window(0, 3, 2).is_err());
        assert!(m.window(5, 0, 1).is_err());
    }

    #[test]
    fn get_set() {
        let mut m = sample();
        m.set(1, 2, 42.0);
        assert_eq!(m.get(1, 2), 42.0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_panics_out_of_bounds() {
        sample().get(3, 0);
    }

    #[test]
    fn slice_columns_takes_query_range() {
        let m = sample();
        let s = m.slice_columns(1, 3).unwrap();
        assert_eq!(s.n_series(), 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0), &[2.0, 3.0]);
        assert_eq!(s.row(2), &[10.0, 11.0]);
        assert!(m.slice_columns(2, 2).is_err());
        assert!(m.slice_columns(0, 9).is_err());
    }

    #[test]
    fn append_columns_extends_time() {
        let mut m = sample();
        let more = TimeSeriesMatrix::from_rows(vec![
            vec![100.0, 101.0],
            vec![200.0, 201.0],
            vec![300.0, 301.0],
        ])
        .unwrap();
        m.append_columns(&more).unwrap();
        assert_eq!(m.len(), 6);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0, 4.0, 100.0, 101.0]);
        assert_eq!(m.row(2), &[9.0, 10.0, 11.0, 12.0, 300.0, 301.0]);
        // Wrong series count is rejected.
        let bad = TimeSeriesMatrix::from_rows(vec![vec![1.0]]).unwrap();
        assert!(m.append_columns(&bad).is_err());
    }

    #[test]
    fn rows_iterator_matches_row() {
        let m = sample();
        let collected: Vec<&[f64]> = m.rows().collect();
        assert_eq!(collected.len(), 3);
        for (i, r) in collected.iter().enumerate() {
            assert_eq!(*r, m.row(i));
        }
    }
}
