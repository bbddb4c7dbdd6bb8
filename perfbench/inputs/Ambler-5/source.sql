CREATE TABLE Student (
    sid INTEGER PRIMARY KEY,
    sname VARCHAR(255),
    advisorId INTEGER
);
CREATE TABLE Professor (
    pid INTEGER PRIMARY KEY,
    pname VARCHAR(255)
);
