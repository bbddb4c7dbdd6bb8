CREATE TABLE Employee (
    eid INTEGER PRIMARY KEY,
    name VARCHAR(255),
    title VARCHAR(255),
    salary INTEGER,
    photo BLOB,
    bio VARCHAR(255)
);
